package benchhist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestPreviousMatchesProcsAndEnvClass(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	records := []CampaignRecord{
		{Stamp: Stamp{Date: "d1", GOMAXPROCS: procs}, NsPerOp: 1}, // env class "local"
		{Stamp: Stamp{Date: "d2", Env: "local", GOMAXPROCS: procs}},
		{Stamp: Stamp{Date: "d3", Env: "ci", GOMAXPROCS: procs}, NsPerOp: 3},
		{Stamp: Stamp{Date: "d4", Env: "local", GOMAXPROCS: procs + 1}, NsPerOp: 4},
		{Stamp: Stamp{Date: "d5", Env: "ci", GOMAXPROCS: procs + 1}, NsPerOp: 5},
	}
	usable := func(r CampaignRecord) bool { return r.NsPerOp > 0 }
	for _, tc := range []struct {
		ci     string
		usable func(CampaignRecord) bool
		want   string
	}{
		{"", nil, "d2"},
		{"", usable, "d1"},
		{"1", usable, "d3"},
	} {
		t.Setenv("CI", tc.ci)
		if got, ok := Previous(records, tc.usable); !ok || got.Date != tc.want {
			t.Errorf("CI=%q, usable %v: Previous = %q, %v; want %q", tc.ci, tc.usable != nil, got.Date, ok, tc.want)
		}
	}
	if got, ok := Previous(records[3:], nil); ok {
		t.Errorf("Previous matched %q, measured at another GOMAXPROCS", got.Date)
	}
}

// dated returns n records dated d<from>..d<from+n-1>.
func dated(from, n int) []FleetRecord {
	rs := make([]FleetRecord, n)
	for i := range rs {
		rs[i].Date = fmt.Sprintf("d%03d", from+i)
	}
	return rs
}

func TestAppendAndMergeCap(t *testing.T) {
	if rs := Append(dated(0, Cap), FleetRecord{}); len(rs) != Cap || rs[0].Date != "d001" {
		t.Fatalf("Append kept %d records from %q, want %d from d001", len(rs), rs[0].Date, Cap)
	}
	rs, added := merge(dated(0, 60), dated(30, 60))
	if added != 30 || len(rs) != 90 {
		t.Fatalf("merge added %d to %d records, want 30 to 90", added, len(rs))
	}
	rs, added = merge(rs, dated(0, 120))
	if added != 30 || len(rs) != Cap || rs[0].Date != "d020" || rs[Cap-1].Date != "d119" {
		t.Fatalf("merge added %d, kept %d records %q..%q; want 30, %d, d020..d119", added, len(rs), rs[0].Date, rs[len(rs)-1].Date, Cap)
	}
	// Undated records are identified by their whole content.
	undated := []RestoreRecord{{TemplateNsPerOp: 1}, {TemplateNsPerOp: 2}}
	if rs, added := merge(undated[:1], undated); added != 1 || len(rs) != 2 {
		t.Fatalf("undated merge added %d, kept %d; want 1 and 2", added, len(rs))
	}
}

func TestLoadErrors(t *testing.T) {
	var f FleetFile
	dir := t.TempDir()
	if err := Load(filepath.Join(dir, "missing.json"), &f); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"records": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(bad, &f); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("malformed file: %v, want a decode error", err)
	}
}

func TestEffDerivesForOldRecords(t *testing.T) {
	old := Variant{Workers: 4, Speedup: 2}
	top := MaxWorker([]Variant{{Workers: 1, Speedup: 1}, old, {Workers: 2, Speedup: 1.5, Efficiency: 0.7}})
	if top != old || top.Eff() != 0.5 {
		t.Errorf("MaxWorker = %+v with Eff %v, want the 4-worker variant with speedup/workers 0.5", top, top.Eff())
	}
	if eff := (Variant{Workers: 4, Speedup: 2, Efficiency: 0.4}).Eff(); eff != 0.4 {
		t.Errorf("recorded efficiency: Eff %v, want 0.4", eff)
	}
}
