package core

import (
	"testing"
	"time"

	"uniserver/internal/silicon"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// startedDeployment is the adaptive-policy tests' fixture: a
// characterized ecosystem with a high-performance deployment entered
// and zero windows run.
func startedDeployment(t *testing.T, seed uint64) *Deployment {
	t.Helper()
	e, _ := readyEcosystem(t, seed)
	d, err := e.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestScheduledCampaignPassthroughWhenDisarmed: without a drift
// policy the scheduler is exactly Stress.DueAt, and the policy
// counters never move.
func TestScheduledCampaignPassthroughWhenDisarmed(t *testing.T) {
	d := startedDeployment(t, 41)
	e := d.eco
	if d.scheduledCampaignDue(e.Clock.Now()) {
		t.Fatal("campaign due immediately after characterization")
	}
	e.Clock.Advance(e.opts.StressPeriod)
	if !d.scheduledCampaignDue(e.Clock.Now()) {
		t.Fatal("elapsed cadence not reported without a policy")
	}
	if d.sum.RecharTriggered != 0 || d.sum.RecharSuppressed != 0 {
		t.Fatalf("disarmed gate moved the counters: +%d -%d",
			d.sum.RecharTriggered, d.sum.RecharSuppressed)
	}
}

// TestDriftGateSuppressesFreshMargins: with no drift accumulated
// since the last campaign the gate closes, counts the suppression,
// and consumes the cadence slot so the decision recurs at the next
// tick rather than on every following window.
func TestDriftGateSuppressesFreshMargins(t *testing.T) {
	d := startedDeployment(t, 42)
	e := d.eco
	d.SetDriftPolicy(0.25)
	e.Clock.Advance(e.opts.StressPeriod)
	if !e.Stress.DueAt(e.Clock.Now()) {
		t.Fatal("precondition: cadence should have elapsed")
	}
	if d.scheduledCampaignDue(e.Clock.Now()) {
		t.Fatal("gate opened with zero accumulated drift")
	}
	if d.sum.RecharSuppressed != 1 {
		t.Fatalf("RecharSuppressed = %d, want 1", d.sum.RecharSuppressed)
	}
	if e.Stress.DueAt(e.Clock.Now()) {
		t.Fatal("suppressed slot was not consumed")
	}
	if d.scheduledCampaignDue(e.Clock.Now()) || d.sum.RecharSuppressed != 1 {
		t.Fatal("suppression decision repeated before the next cadence tick")
	}
}

// TestDriftGateOpensOnAccumulatedDrift: enough aging since the last
// campaign clears any reasonable margin fraction, the gate opens and
// counts the trigger, and the campaign itself resets the drift
// baseline so the next tick is suppressed again.
func TestDriftGateOpensOnAccumulatedDrift(t *testing.T) {
	d := startedDeployment(t, 43)
	e := d.eco
	d.SetDriftPolicy(0.1)
	// A year of full-stress aging (~11 mV under the default power law)
	// clears a tenth of the advised headroom (~5-6 mV) comfortably.
	e.Machine.Chip.Age(silicon.DefaultAgingModel(), 365*24*time.Hour, 1)
	e.Clock.Advance(e.opts.StressPeriod)
	if !d.scheduledCampaignDue(e.Clock.Now()) {
		t.Fatal("gate stayed closed after a year of aging")
	}
	if d.sum.RecharTriggered != 1 {
		t.Fatalf("RecharTriggered = %d, want 1", d.sum.RecharTriggered)
	}
	if err := d.RecharacterizeNow(); err != nil {
		t.Fatal(err)
	}
	e.Clock.Advance(e.opts.StressPeriod)
	if d.scheduledCampaignDue(e.Clock.Now()) {
		t.Fatal("gate open with no drift since the campaign refreshed the baseline")
	}
	if d.sum.RecharSuppressed != 1 {
		t.Fatalf("RecharSuppressed = %d, want 1", d.sum.RecharSuppressed)
	}
}

// TestDriftGateZeroFractionAlwaysOpen pins the degenerate policy the
// cadence-equivalence acceptance test builds on: aging is monotone,
// so at MarginFrac 0 every due slot triggers.
func TestDriftGateZeroFractionAlwaysOpen(t *testing.T) {
	d := startedDeployment(t, 44)
	e := d.eco
	d.SetDriftPolicy(0)
	for tick := 1; tick <= 3; tick++ {
		e.Clock.Advance(e.opts.StressPeriod)
		if !d.scheduledCampaignDue(e.Clock.Now()) {
			t.Fatalf("zero-margin gate closed at tick %d", tick)
		}
		if err := d.RecharacterizeNow(); err != nil {
			t.Fatal(err)
		}
	}
	if d.sum.RecharTriggered != 3 || d.sum.RecharSuppressed != 0 {
		t.Fatalf("counters = +%d -%d, want +3 -0",
			d.sum.RecharTriggered, d.sum.RecharSuppressed)
	}
}

// TestSetDriftPolicyNegativeDisarms: a negative fraction returns the
// scheduler to plain passthrough.
func TestSetDriftPolicyNegativeDisarms(t *testing.T) {
	d := startedDeployment(t, 45)
	e := d.eco
	d.SetDriftPolicy(10)
	d.SetDriftPolicy(-1)
	e.Clock.Advance(e.opts.StressPeriod)
	if !d.scheduledCampaignDue(e.Clock.Now()) {
		t.Fatal("disarmed gate still filtering scheduled campaigns")
	}
	if d.sum.RecharTriggered != 0 || d.sum.RecharSuppressed != 0 {
		t.Fatal("disarmed gate counted a decision")
	}
}

// TestECCLoopConvergesAndHolds: quiet windows walk the point down in
// 5 mV steps to the 40 mV bound and hold there; every intermediate
// state keeps the controller invariants (bounded offset, step
// granularity, point = advised − offset, step/backoff ledger
// balance).
func TestECCLoopConvergesAndHolds(t *testing.T) {
	d := startedDeployment(t, 46)
	e := d.eco
	d.SetECCLoop(0)
	advised := e.Hypervisor.Point().VoltageMV
	for w := 0; w < 12; w++ {
		if err := d.eccStep(0); err != nil {
			t.Fatal(err)
		}
		checkECCInvariants(t, d, advised)
	}
	if d.eccExtraMV != eccMaxExtraMV {
		t.Fatalf("offset = %d after 12 quiet windows, want the %d bound", d.eccExtraMV, eccMaxExtraMV)
	}
	if d.sum.UndervoltSteps != eccMaxExtraMV/eccStepMV {
		t.Fatalf("UndervoltSteps = %d, want %d", d.sum.UndervoltSteps, eccMaxExtraMV/eccStepMV)
	}
	if got := e.Hypervisor.Point().VoltageMV; got != advised-eccMaxExtraMV {
		t.Fatalf("converged point %d mV, want %d", got, advised-eccMaxExtraMV)
	}
}

// TestECCLoopBacksOffOnOnset: once correctable errors cross the
// threshold the controller retreats one notch per window until it is
// back at the advised point, then holds — it never overvolts above
// it.
func TestECCLoopBacksOffOnOnset(t *testing.T) {
	d := startedDeployment(t, 47)
	e := d.eco
	d.SetECCLoop(0)
	advised := e.Hypervisor.Point().VoltageMV
	for w := 0; w < 12; w++ {
		if err := d.eccStep(0); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 12; w++ {
		if err := d.eccStep(5); err != nil {
			t.Fatal(err)
		}
		checkECCInvariants(t, d, advised)
	}
	if d.eccExtraMV != 0 {
		t.Fatalf("offset = %d after sustained errors, want 0", d.eccExtraMV)
	}
	if got := e.Hypervisor.Point().VoltageMV; got != advised {
		t.Fatalf("retreated point %d mV, want the advised %d", got, advised)
	}
	if d.sum.ECCBackoffs != eccMaxExtraMV/eccStepMV {
		t.Fatalf("ECCBackoffs = %d, want %d", d.sum.ECCBackoffs, eccMaxExtraMV/eccStepMV)
	}
}

// checkECCInvariants asserts the closed-loop controller's state
// invariants after any decision.
func checkECCInvariants(t *testing.T, d *Deployment, advisedMV int) {
	t.Helper()
	if d.eccExtraMV < 0 || d.eccExtraMV > eccMaxExtraMV {
		t.Fatalf("offset %d outside [0, %d]", d.eccExtraMV, eccMaxExtraMV)
	}
	if d.eccExtraMV%eccStepMV != 0 {
		t.Fatalf("offset %d not a multiple of the %d mV step", d.eccExtraMV, eccStepMV)
	}
	if got := d.eco.Hypervisor.Point().VoltageMV; got != advisedMV-d.eccExtraMV {
		t.Fatalf("point %d mV != advised %d − offset %d", got, advisedMV, d.eccExtraMV)
	}
	if steps := d.sum.UndervoltSteps - d.sum.ECCBackoffs; steps*eccStepMV != d.eccExtraMV {
		t.Fatalf("ledger out of balance: %d steps − %d backoffs vs offset %d",
			d.sum.UndervoltSteps, d.sum.ECCBackoffs, d.eccExtraMV)
	}
}

// TestECCLoopRespectsThreshold: counts at the threshold are quiet,
// counts above it are onset.
func TestECCLoopRespectsThreshold(t *testing.T) {
	d := startedDeployment(t, 48)
	d.SetECCLoop(3)
	if err := d.eccStep(3); err != nil {
		t.Fatal(err)
	}
	if d.eccExtraMV != eccStepMV {
		t.Fatalf("count at the threshold did not step down: offset %d", d.eccExtraMV)
	}
	if err := d.eccStep(4); err != nil {
		t.Fatal(err)
	}
	if d.eccExtraMV != 0 {
		t.Fatalf("count above the threshold did not back off: offset %d", d.eccExtraMV)
	}
}

// TestECCLoopResetsOutsideTheLoop: a crash fallback parks the node at
// nominal and the controller must forget its offset instead of
// undervolting the guardbanded point; a mode switch re-derives the
// point through EnterMode and resets the offset too.
func TestECCLoopResetsOutsideTheLoop(t *testing.T) {
	d := startedDeployment(t, 49)
	e := d.eco
	d.SetECCLoop(0)
	for w := 0; w < 4; w++ {
		if err := d.eccStep(0); err != nil {
			t.Fatal(err)
		}
	}
	if d.eccExtraMV == 0 {
		t.Fatal("precondition: controller should hold an offset")
	}
	if err := e.HandleCrash(); err != nil {
		t.Fatal(err)
	}
	if err := d.eccStep(0); err != nil {
		t.Fatal(err)
	}
	if d.eccExtraMV != 0 {
		t.Fatalf("offset %d survived the nominal fallback", d.eccExtraMV)
	}
	if e.Hypervisor.Point() != e.Machine.Spec.Nominal {
		t.Fatal("controller moved the point while parked at nominal")
	}

	if err := d.SwitchMode(vfr.ModeHighPerformance, 0.01); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if err := d.eccStep(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SwitchMode(vfr.ModeLowPower, 0.02); err != nil {
		t.Fatal(err)
	}
	if d.eccExtraMV != 0 {
		t.Fatalf("offset %d survived the mode switch", d.eccExtraMV)
	}
}

// TestAdviceStableAcrossSnapshotRestore is the predictor↔core
// integration pin: the advice a live deployment gets from the
// characterized state must be byte-identical before a Snapshot and
// after a stamp from it — the advisor, model and table all travel
// through the snapshot images intact.
func TestAdviceStableAcrossSnapshotRestore(t *testing.T) {
	e, _ := readyEcosystem(t, 50)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	before, err := d.Advise()
	if err != nil {
		t.Fatal(err)
	}
	restored := coldStamp(t, snap, RestoreOptions{})
	d2, err := restored.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	after, err := d2.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("advice moved across snapshot/restore:\nbefore %+v\nafter  %+v", before, after)
	}
	// The restored deployment's policies start from the same clean
	// state a fresh node's would: nothing of the source deployment's
	// controller leaks through the ecosystem snapshot.
	if d2.eccExtraMV != 0 || d2.lastCampaignAge != restored.Machine.Chip.AgeShiftMV {
		t.Fatal("restored deployment inherited policy state")
	}
}

// TestWeakGrowthAcrossFastForward: an armed growth rate adds weak
// cells across a gap; a zero rate leaves the population — and, per
// the stream-isolation argument in FastForward, every downstream
// draw — untouched.
func TestWeakGrowthAcrossFastForward(t *testing.T) {
	count := func(e *Ecosystem) int {
		n := 0
		for _, dom := range e.Mem.Domains {
			for _, dimm := range dom.DIMMs {
				n += dimm.Len()
			}
		}
		return n
	}
	grown, _ := readyEcosystem(t, 51)
	still, _ := readyEcosystem(t, 51)
	grown.SetWeakGrowth(25)
	before := count(grown)
	if before != count(still) {
		t.Fatal("precondition: same-seed ecosystems differ")
	}
	gap := Gap{Days: 30, Duty: 0.5}
	if err := grown.FastForward(gap, silicon.DefaultAgingModel()); err != nil {
		t.Fatal(err)
	}
	if err := still.FastForward(gap, silicon.DefaultAgingModel()); err != nil {
		t.Fatal(err)
	}
	if count(grown) <= before {
		t.Fatalf("30 days at 25 cells/DIMM/day grew nothing: %d -> %d", before, count(grown))
	}
	if count(still) != before {
		t.Fatalf("zero-rate ecosystem grew cells: %d -> %d", before, count(still))
	}
	// Stream isolation: the growth draws lived on the per-day child
	// streams, so the growth-free twin's main stream is exactly where
	// the pre-growth engine would have left it.
	if grown.src.Uint64() != still.src.Uint64() {
		t.Fatal("weak-cell growth moved the parent stream")
	}
}
