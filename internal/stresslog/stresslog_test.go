package stresslog

import (
	"bytes"
	"io"
	"testing"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/power"
	"uniserver/internal/rng"
	"uniserver/internal/telemetry"
	"uniserver/internal/vfr"
)

func testRig(t *testing.T, seed uint64) (*Daemon, *telemetry.Clock, *healthlog.Daemon) {
	t.Helper()
	return testRigLogging(t, seed, nil)
}

// testRigLogging is testRig with the HealthLog writing its logfile to
// out.
func testRigLogging(t *testing.T, seed uint64, out io.Writer) (*Daemon, *telemetry.Clock, *healthlog.Daemon) {
	t.Helper()
	clock := telemetry.NewClock(time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC))
	machine := cpu.NewMachine(cpu.PartI5_4200U(), seed)
	cfg := dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	mem, err := dram.New(cfg, dram.DefaultRetentionModel(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	health := healthlog.New(healthlog.DefaultConfig(), clock, out)
	refresh := power.DRAMRefreshModel{DeviceGb: 2, TotalMemW: 10}
	d := New(clock, machine, mem, health, refresh, 60*24*time.Hour) // ~2 months
	return d, clock, health
}

func quickParams() TargetParams {
	p := DefaultTargetParams()
	p.UseViruses = false // skip GA for speed in most tests
	p.Runs = 2
	p.DRAMPasses = 1
	return p
}

func TestParamValidation(t *testing.T) {
	d, _, _ := testRig(t, 1)
	bad := []TargetParams{
		{Runs: 0, DRAMPasses: 1},
		{Runs: 1, CushionMV: -1, DRAMPasses: 1},
		{Runs: 1, RefreshDerate: 2, DRAMPasses: 1},
		{Runs: 1, DRAMPasses: 0},
	}
	for i, p := range bad {
		if _, err := d.RunCampaign(p, rng.New(1)); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

func TestCampaignPublishesMargins(t *testing.T) {
	d, _, _ := testRig(t, 3)
	vec, err := d.RunCampaign(quickParams(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Per-core CPU margins plus the DRAM margin.
	comps := vec.Table.Components()
	if len(comps) != 3 { // 2 cores + dram
		t.Fatalf("components = %v", comps)
	}
	for _, c := range []string{"i5-4200U/core0", "i5-4200U/core1"} {
		m, err := vec.Table.Lookup(c)
		if err != nil {
			t.Fatal(err)
		}
		if m.Safe.VoltageMV >= m.Nominal.VoltageMV {
			t.Errorf("%s: no margin recovered", c)
		}
		if m.Safe.VoltageMV != m.CrashPoint.VoltageMV+cpu.SafeCushionMV {
			t.Errorf("%s: cushion not applied", c)
		}
	}
	if vec.SweepsRun == 0 || vec.CrashesSeen != vec.SweepsRun {
		t.Errorf("sweep bookkeeping wrong: %+v", vec)
	}
	if vec.ECCEvents == 0 {
		t.Error("i5 campaign should observe cache ECC events")
	}
}

func TestCampaignDRAMMargin(t *testing.T) {
	d, _, _ := testRig(t, 5)
	vec, err := d.RunCampaign(quickParams(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if vec.ZeroErrorRefresh < 1500*time.Millisecond {
		t.Errorf("zero-error refresh = %v, paper saw >= 1.5s", vec.ZeroErrorRefresh)
	}
	if vec.SafeRefresh < vfr.NominalRefresh {
		t.Errorf("published refresh below nominal: %v", vec.SafeRefresh)
	}
	if vec.SafeRefresh > vec.ZeroErrorRefresh {
		t.Errorf("published refresh %v exceeds zero-error %v", vec.SafeRefresh, vec.ZeroErrorRefresh)
	}
	if vec.RefreshSavingsPct <= 0 {
		t.Errorf("refresh savings = %v, want positive", vec.RefreshSavingsPct)
	}
	m, err := vec.Table.Lookup("dram/relaxed")
	if err != nil {
		t.Fatal(err)
	}
	if m.Safe.Refresh != vec.SafeRefresh {
		t.Error("dram margin not in table")
	}
}

func TestCampaignFeedsHealthLog(t *testing.T) {
	var log bytes.Buffer
	d, _, health := testRigLogging(t, 7, &log)
	if _, err := d.RunCampaign(quickParams(), rng.New(7)); err != nil {
		t.Fatal(err)
	}
	stats := health.Stats()
	if stats.Recorded == 0 {
		t.Fatal("campaign recorded nothing to HealthLog")
	}
	if stats.Crashes == 0 {
		t.Fatal("campaign crashes not recorded")
	}
	vecs, err := healthlog.ReadLog(&log)
	if err != nil {
		t.Fatal(err)
	}
	sawCore0, sawCrash := false, false
	for _, v := range vecs {
		if v.Component == "i5-4200U/core0" {
			sawCore0 = true
			sawCrash = sawCrash || v.HasCrash()
		}
	}
	if !sawCore0 {
		t.Fatal("no vectors for core0")
	}
	if !sawCrash {
		t.Fatal("no crash events in core0 history")
	}
}

func TestOfflineDuringCampaign(t *testing.T) {
	// The HealthLog writes each vector's line before Record returns,
	// so a logfile writer sees the online flag at every record: during
	// the campaign the machine must be offline.
	var d *Daemon
	sawOffline := false
	d, _, _ = testRigLogging(t, 9, writerFunc(func() {
		if !d.Online() {
			sawOffline = true
		}
	}))
	if !d.Online() {
		t.Fatal("machine should start online")
	}
	if _, err := d.RunCampaign(quickParams(), rng.New(9)); err != nil {
		t.Fatal(err)
	}
	if !sawOffline {
		t.Fatal("machine was never offline during campaign")
	}
	if !d.Online() {
		t.Fatal("machine not restored online")
	}
}

// writerFunc is a logfile writer that calls itself on every line.
type writerFunc func()

func (f writerFunc) Write(p []byte) (int, error) {
	f()
	return len(p), nil
}

func TestPeriodicScheduling(t *testing.T) {
	d, clock, _ := testRig(t, 11)
	if !d.DueAt(clock.Now()) {
		t.Fatal("never-characterized machine should be due")
	}
	if _, err := d.RunCampaign(quickParams(), rng.New(11)); err != nil {
		t.Fatal(err)
	}
	if d.DueAt(clock.Now()) {
		t.Fatal("freshly characterized machine should not be due")
	}
	clock.Advance(61 * 24 * time.Hour)
	if !d.DueAt(clock.Now()) {
		t.Fatal("machine should be due after the period elapses")
	}
}

func TestTriggerQueue(t *testing.T) {
	d, _, health := testRig(t, 13)
	health.OnStressTrigger(d.TriggerHandler())
	// Flood one component with correctable errors to cross the
	// threshold (default 10 per hour).
	for i := 0; i < 12; i++ {
		health.Record(telemetry.InfoVector{
			Component: "i5-4200U/core0",
			Errors: []telemetry.ErrorEvent{
				{Kind: telemetry.ErrCorrectable, Component: "i5-4200U/core0", Count: 1},
			},
		})
	}
	if d.PendingCount() == 0 {
		t.Fatal("error flood did not queue a stress request")
	}
	// Running the campaign clears pending requests.
	if _, err := d.RunCampaign(quickParams(), rng.New(13)); err != nil {
		t.Fatal(err)
	}
	if d.PendingCount() != 0 {
		t.Fatal("pending requests not cleared after campaign")
	}
}

func TestHistoryAccumulates(t *testing.T) {
	d, _, _ := testRig(t, 15)
	if _, err := d.RunCampaign(quickParams(), rng.New(15)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunCampaign(quickParams(), rng.New(16)); err != nil {
		t.Fatal(err)
	}
	h := d.History()
	if len(h) != 2 {
		t.Fatalf("history = %d entries", len(h))
	}
	if !h[1].Time.After(h[0].Time) {
		t.Fatal("history timestamps not increasing")
	}
}

func TestCampaignWithViruses(t *testing.T) {
	d, _, _ := testRig(t, 17)
	p := quickParams()
	p.UseViruses = true
	p.Runs = 1
	vec, err := d.RunCampaign(p, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	// Virus-driven campaign must not publish a less safe (lower)
	// voltage than a benchmark-only campaign on an identical machine:
	// viruses only tighten margins.
	d2, _, _ := testRig(t, 17)
	p2 := quickParams()
	p2.Runs = 1
	vec2, err := d2.RunCampaign(p2, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := vec.Table.Lookup("i5-4200U/core0")
	m2, _ := vec2.Table.Lookup("i5-4200U/core0")
	if m1.Safe.VoltageMV < m2.Safe.VoltageMV {
		t.Errorf("virus campaign published lower (less safe) voltage %d than bench-only %d",
			m1.Safe.VoltageMV, m2.Safe.VoltageMV)
	}
}

func TestConcurrentCampaignRejected(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once bool
	d, _, _ := testRigLogging(t, 19, writerFunc(func() {
		if !once {
			once = true
			close(started)
			<-release
		}
	}))
	errCh := make(chan error, 1)
	go func() {
		_, err := d.RunCampaign(quickParams(), rng.New(19))
		errCh <- err
	}()
	<-started
	if _, err := d.RunCampaign(quickParams(), rng.New(20)); err == nil {
		t.Error("second concurrent campaign accepted")
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}
