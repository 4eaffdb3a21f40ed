package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uniserver/internal/scenario"
	"uniserver/internal/vfr"
)

// testCampaignOpts is the small grid the CLI tests run: two presets
// scaled to 4 fast cells, sequential for determinism.
func testCampaignOpts(storeDir string) campaignOpts {
	return campaignOpts{
		spec:            "baseline,mode-churn",
		nodesOverride:   2,
		windowsOverride: 6,
		seed:            11,
		seedCount:       2,
		parallel:        1,
		storeDir:        storeDir,
	}
}

// TestFleetFlagsRunAsScenario runs -nodes N fleets through the CLI
// front end in-process. The fleet flags lower onto an inline scenario
// compiled by Scenario.FleetConfig, and the fingerprints they print
// are pinned: the lowering must reproduce the fleet runs the flags
// always described, at any worker count.
func TestFleetFlagsRunAsScenario(t *testing.T) {
	const (
		plain     = "d44559a42a38fd9ff43d1bd02067842d3c6c3976f284b3c2fdadf04bc23809e9"
		policies  = "ee2aa32bb2196861cb82313da32e6c584a2f55223b4eb46925bcc4764e1a8213"
		archetype = "caf4eb5ff5ab3d161eb44f4d2f4d47cef262e5bed2ac0b5fca55239b51ccff17"
		cadence   = "c8fcfcdb747cad680495adb0c7724116dcaccf47586cabda3e4a2ee2bedfa0ec"
	)
	for _, tc := range []struct{ args, want string }{
		{"-nodes 4 -windows 30 -seed 9", plain},
		{"-nodes 4 -windows 30 -seed 9 -workers 1", plain},
		{"-nodes 3 -windows 8 -lifetime 3x30 -recharact-every 30 -drift-margin 0.1 -ecc-loop", policies},
		{"-nodes 6 -windows 20 -seed 3 -archetypes", archetype},
		{"-nodes 3 -windows 8 -lifetime 3x30", cadence},
		// 0 leaves the drift gate off: the same run as omitting the flag.
		{"-nodes 3 -windows 8 -lifetime 3x30 -drift-margin 0", cadence},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if !strings.Contains(out.String(), "\nfingerprint sha256:"+tc.want+"\n") {
			t.Errorf("%s: fingerprint is not %.16s…:\n%s", tc.args, tc.want, out.String())
		}
	}
}

// TestFleetFlagsRejectedBeforeHealthLog checks that the inline
// scenario is validated before the health log is created: a
// declaration error must not truncate an existing file.
func TestFleetFlagsRejectedBeforeHealthLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "health.jsonl")
	if err := os.WriteFile(logPath, []byte("kept\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{
		"-nodes 3 -drift-margin 0.1",               // the drift gate needs -lifetime
		"-nodes 3 -lifetime 3x30 -drift-margin -1", // negative margin
		"-nodes 3 -lifetime 3x30 -gap-duty 2",      // duty outside [0,1]
		"-nodes 3 -windows 0",                      // no windows
	} {
		err := run(append(strings.Fields(args), "-healthlog", logPath), &bytes.Buffer{})
		if err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
	if b, err := os.ReadFile(logPath); err != nil || string(b) != "kept\n" {
		t.Errorf("health log touched by rejected runs: %q, %v", b, err)
	}
}

// TestSingleNodeHealthLogWriteFails checks that a single-node run
// whose health log cannot be written fails instead of reporting
// success with an empty or truncated log.
func TestSingleNodeHealthLogWriteFails(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "health.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = runSingleNode(&bytes.Buffer{}, 1, vfr.ModeHighPerformance, 0.01, 2, false, nil, f)
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("run with a closed health log returned %v, want its write error", err)
	}
}

// TestInterruptedCampaignEmitsResumableState is the regression test
// for the interrupt path: a canceled campaign must still print the
// partial fingerprint and the result store's state (the run used to
// silently lose both), and the store must then actually resume — the
// rerun serves completed cells without re-executing and lands on the
// uninterrupted fingerprint.
func TestInterruptedCampaignEmitsResumableState(t *testing.T) {
	dir := t.TempDir()
	opts := testCampaignOpts(dir)

	// Reference: the uninterrupted campaign, straight through the
	// scenario engine.
	camp, err := buildCampaign(opts)
	if err != nil {
		t.Fatalf("buildCampaign: %v", err)
	}
	ref, err := scenario.RunCampaign(camp)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}

	// Interrupt before the first cell: a pre-canceled context models
	// SIGINT landing at the earliest boundary. Every cell cancels; the
	// run must still report itself as resumable.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err = runCampaignCLI(ctx, &buf, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign error = %v, want context.Canceled", err)
	}
	out := buf.String()
	for _, want := range []string{
		"INTERRUPTED: 0 of 4 cells complete",
		"partial campaign fingerprint sha256:",
		"result store " + dir,
		"resume: rerun the same command",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("interrupted output lacks %q:\n%s", want, out)
		}
	}

	// Rerun with a live context: the run completes, lands on the
	// reference fingerprint, and prints the stored run ID.
	var buf2 bytes.Buffer
	if err := runCampaignCLI(context.Background(), &buf2, opts); err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	out2 := buf2.String()
	if !strings.Contains(out2, "campaign fingerprint sha256:"+ref.FingerprintSHA256) {
		t.Errorf("resumed campaign fingerprint diverged from the direct run:\n%s", out2)
	}
	if !strings.Contains(out2, "complete in store") {
		t.Errorf("completed run does not print its stored run ID:\n%s", out2)
	}

	// Third run on the same store: every cell served from the store
	// (4 hits, 0 executions), same fingerprint — completed cells never
	// re-execute.
	var buf3 bytes.Buffer
	if err := runCampaignCLI(context.Background(), &buf3, opts); err != nil {
		t.Fatalf("fully-cached campaign: %v", err)
	}
	out3 := buf3.String()
	if !strings.Contains(out3, "campaign fingerprint sha256:"+ref.FingerprintSHA256) {
		t.Errorf("cache-served campaign fingerprint diverged:\n%s", out3)
	}
	if !strings.Contains(out3, "4 served from store, 0 executed") {
		t.Errorf("cache-served campaign re-executed cells:\n%s", out3)
	}
}

// TestInterruptedCampaignWithoutStoreStillPrintsFingerprint: even with
// no store attached, interruption must emit the partial fingerprint
// and say the work is not persisted.
func TestInterruptedCampaignWithoutStoreStillPrintsFingerprint(t *testing.T) {
	opts := testCampaignOpts("")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := runCampaignCLI(ctx, &buf, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign error = %v, want context.Canceled", err)
	}
	out := buf.String()
	if !strings.Contains(out, "partial campaign fingerprint sha256:") {
		t.Errorf("interrupted output lacks the partial fingerprint:\n%s", out)
	}
	if !strings.Contains(out, "without -result-store") {
		t.Errorf("interrupted output does not warn that nothing persisted:\n%s", out)
	}
}

// TestDiffCLI drives the diff subcommand end to end over two stored
// runs with different seeds: the report renders, the JSON lands, and
// matching runs pass -fail-on-regression while self-identical runs
// report a match.
func TestDiffCLI(t *testing.T) {
	dir := t.TempDir()

	optsA := testCampaignOpts(dir)
	var outA bytes.Buffer
	if err := runCampaignCLI(context.Background(), &outA, optsA); err != nil {
		t.Fatalf("run A: %v", err)
	}
	optsB := testCampaignOpts(dir)
	optsB.seed = 31
	var outB bytes.Buffer
	if err := runCampaignCLI(context.Background(), &outB, optsB); err != nil {
		t.Fatalf("run B: %v", err)
	}
	idA, idB := storedRunID(t, outA.String()), storedRunID(t, outB.String())
	if idA == idB {
		t.Fatalf("different seeds landed on the same run ID")
	}

	jsonPath := dir + "/diff.json"
	var diffOut bytes.Buffer
	if err := runDiff([]string{"-store", dir, "-json", jsonPath, idA, idB}, &diffOut); err != nil {
		t.Fatalf("diff: %v", err)
	}
	if !strings.Contains(diffOut.String(), "campaign fingerprints MISMATCH") {
		t.Errorf("different-seed diff did not flag the fingerprint mismatch:\n%s", diffOut.String())
	}

	// Self-diff: identical runs match, and -fail-on-regression passes.
	var selfOut bytes.Buffer
	if err := runDiff([]string{"-store", dir, "-fail-on-regression", idA, idA}, &selfOut); err != nil {
		t.Fatalf("self-diff: %v", err)
	}
	if !strings.Contains(selfOut.String(), "campaign fingerprints match") {
		t.Errorf("self-diff did not report a match:\n%s", selfOut.String())
	}

	// Unknown run IDs are refused.
	if err := runDiff([]string{"-store", dir, "r0000000000000000", idB}, &bytes.Buffer{}); err == nil {
		t.Errorf("diff accepted an unknown run ID")
	}
}

// storedRunID extracts the run ID from runCampaignCLI's store line.
func storedRunID(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "run r") && strings.Contains(line, "complete in store") {
			return strings.Fields(line)[1]
		}
	}
	t.Fatalf("no stored run ID in output:\n%s", out)
	return ""
}
