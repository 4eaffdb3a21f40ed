package resultstore

import (
	"fmt"
	"io"

	"uniserver/internal/scenario"
)

// The regression thresholds: an availability drop of more than
// availEps or an energy increase of more than energyPct percent flags
// a regression.
const (
	availEps  = 0.0005
	energyPct = 2.0
)

// DiffRow compares one scenario's aggregate row across two runs.
type DiffRow struct {
	Scenario string `json:"scenario"`

	// Present flags: a scenario may exist in only one run.
	InA bool `json:"in_a"`
	InB bool `json:"in_b"`

	// FingerprintMatch reports whether the scenario row's fingerprint
	// hash is byte-identical across the runs. For runs of the same
	// request this is the determinism contract; for intentionally
	// different requests a mismatch is expected and informational.
	FingerprintMatch bool `json:"fingerprint_match"`

	AvailA     float64 `json:"avail_a"`
	AvailB     float64 `json:"avail_b"`
	AvailDelta float64 `json:"avail_delta"`

	EnergyKWhA     float64 `json:"energy_kwh_a"`
	EnergyKWhB     float64 `json:"energy_kwh_b"`
	EnergyDeltaPct float64 `json:"energy_delta_pct"`

	SavedWhA float64 `json:"saved_wh_a"`
	SavedWhB float64 `json:"saved_wh_b"`

	FailedA int `json:"failed_a,omitempty"`
	FailedB int `json:"failed_b,omitempty"`

	// Flags carry everything noteworthy about the row:
	// "fingerprint-changed" (informational) and the regression class —
	// "availability-regression", "energy-regression", "new-failures",
	// "missing-in-b".
	Flags []string `json:"flags,omitempty"`
}

// DiffReport is the run-over-run comparison `uniserver diff` prints
// and CI archives.
type DiffReport struct {
	RunA string `json:"run_a"`
	RunB string `json:"run_b"`

	FingerprintA string `json:"fingerprint_a"`
	FingerprintB string `json:"fingerprint_b"`
	// Match reports whole-campaign fingerprint identity — true exactly
	// when the two runs computed byte-identical grids.
	Match bool `json:"match"`

	Rows []DiffRow `json:"rows"`

	// Regressions lists "scenario: flag" for every regression-class
	// row flag; empty means run B is no worse than run A under the
	// thresholds.
	Regressions []string `json:"regressions,omitempty"`
}

// DiffRuns compares two completed runs scenario row by scenario row.
// Both manifests must carry their reports (status complete or failed
// with a partial report).
func DiffRuns(a, b RunManifest) (DiffReport, error) {
	if a.Report == nil {
		return DiffReport{}, fmt.Errorf("resultstore: run %s has no report (status %s); diff needs completed runs", a.ID, a.Status)
	}
	if b.Report == nil {
		return DiffReport{}, fmt.Errorf("resultstore: run %s has no report (status %s); diff needs completed runs", b.ID, b.Status)
	}
	rep := DiffReport{
		RunA:         a.ID,
		RunB:         b.ID,
		FingerprintA: a.Report.FingerprintSHA256,
		FingerprintB: b.Report.FingerprintSHA256,
	}
	rep.Match = rep.FingerprintA == rep.FingerprintB && rep.FingerprintA != ""

	rowsB := map[string]scenario.ScenarioReport{}
	for _, sr := range b.Report.Scenarios {
		rowsB[sr.Scenario] = sr
	}
	seen := map[string]bool{}
	for _, ra := range a.Report.Scenarios {
		seen[ra.Scenario] = true
		row := DiffRow{Scenario: ra.Scenario, InA: true}
		row.AvailA, row.EnergyKWhA, row.SavedWhA, row.FailedA = ra.MeanAvailability, ra.EnergyKWh, ra.EnergySavedWh, ra.Failed
		rb, ok := rowsB[ra.Scenario]
		if !ok {
			row.Flags = append(row.Flags, "missing-in-b")
			rep.Regressions = append(rep.Regressions, ra.Scenario+": missing-in-b")
			rep.Rows = append(rep.Rows, row)
			continue
		}
		row.InB = true
		row.AvailB, row.EnergyKWhB, row.SavedWhB, row.FailedB = rb.MeanAvailability, rb.EnergyKWh, rb.EnergySavedWh, rb.Failed
		row.AvailDelta = rb.MeanAvailability - ra.MeanAvailability
		if ra.EnergyKWh != 0 {
			row.EnergyDeltaPct = (rb.EnergyKWh - ra.EnergyKWh) / ra.EnergyKWh * 100
		}
		row.FingerprintMatch = ra.FingerprintSHA256 == rb.FingerprintSHA256
		if !row.FingerprintMatch {
			row.Flags = append(row.Flags, "fingerprint-changed")
		}
		if -row.AvailDelta > availEps {
			row.Flags = append(row.Flags, "availability-regression")
			rep.Regressions = append(rep.Regressions, ra.Scenario+": availability-regression")
		}
		if row.EnergyDeltaPct > energyPct {
			row.Flags = append(row.Flags, "energy-regression")
			rep.Regressions = append(rep.Regressions, ra.Scenario+": energy-regression")
		}
		if rb.Failed > ra.Failed {
			row.Flags = append(row.Flags, "new-failures")
			rep.Regressions = append(rep.Regressions, ra.Scenario+": new-failures")
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, rb := range b.Report.Scenarios {
		if seen[rb.Scenario] {
			continue
		}
		rep.Rows = append(rep.Rows, DiffRow{
			Scenario: rb.Scenario,
			InB:      true,
			AvailB:   rb.MeanAvailability, EnergyKWhB: rb.EnergyKWh, SavedWhB: rb.EnergySavedWh, FailedB: rb.Failed,
			Flags: []string{"missing-in-a"},
		})
	}
	return rep, nil
}

// WriteText renders the diff as the human-readable table the CLI
// prints.
func (d DiffReport) WriteText(w io.Writer) error {
	match := "MISMATCH"
	if d.Match {
		match = "match"
	}
	if _, err := fmt.Fprintf(w, "run %s vs %s — campaign fingerprints %s\n", d.RunA, d.RunB, match); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %9s %9s %8s %9s %9s %8s %5s  %s\n",
		"SCENARIO", "AVAIL_A", "AVAIL_B", "ΔAVAIL", "KWH_A", "KWH_B", "ΔKWH%", "FP", "FLAGS")
	for _, r := range d.Rows {
		fp := "≠"
		if r.FingerprintMatch {
			fp = "="
		}
		flags := "-"
		if len(r.Flags) > 0 {
			flags = fmt.Sprintf("%v", r.Flags)
		}
		fmt.Fprintf(w, "%-16s %9.4f %9.4f %+8.4f %9.3f %9.3f %+8.2f %5s  %s\n",
			r.Scenario, r.AvailA, r.AvailB, r.AvailDelta, r.EnergyKWhA, r.EnergyKWhB, r.EnergyDeltaPct, fp, flags)
	}
	if len(d.Regressions) > 0 {
		fmt.Fprintf(w, "REGRESSIONS (%d):\n", len(d.Regressions))
		for _, s := range d.Regressions {
			fmt.Fprintf(w, "  %s\n", s)
		}
	} else {
		fmt.Fprintln(w, "no regressions")
	}
	return nil
}
