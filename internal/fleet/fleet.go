// Package fleet is the concurrent multi-node runtime: a deterministic,
// worker-pool-driven engine that runs N core.Ecosystem nodes in
// parallel. Each node's entire lifecycle is one fused worker task —
// pre-deployment characterization (stress campaigns, fault-injection,
// predictor training, or an archetype-snapshot restore), mode entry,
// cloud export, then the full window sequence, buffering a compact
// health record per window — after which the node's ecosystem is
// dropped and only its summary, health records and exported cloud node
// survive. Once every node has finished, the coordinator replays the
// recorded health into the openstack.Manager scheduler window by
// window (reliability metric, proactive migration, SLA accounting).
// Batching is legal because node simulations never read cloud-layer
// state: the replay feeds the manager byte-identical inputs, in the
// identical order, as a per-window barrier would, at a fraction of the
// synchronization cost.
//
// The fused lifecycle is what bounds memory: at most `workers` full
// ecosystems are alive at any instant, independent of fleet size, so
// peak heap scales as workers × ecosystem-size plus O(nodes) compact
// state (health records, summaries, exported cloud nodes) — which is
// what makes O(100k)-node populations runnable. Config.OnNode
// streams per-node summaries out instead of retaining them;
// Config.Archetypes collapses characterization cost from
// O(nodes) to O(distinct silicon/DRAM bins) by cloning one
// characterized snapshot per bin with per-node stream reseating.
//
// Determinism is a hard requirement and a structural property, not a
// best effort: every node owns its rng.Source (seeded by the pure
// NodeSeed function), its telemetry.Clock and its entire simulator
// stack, so no worker-scheduling order can perturb a node's stream;
// workers write only to their own node's slot; and everything that
// crosses nodes — health reports into the manager, VM arrivals, the
// final summary — is merged in node order on the coordinator
// goroutine once the pool has drained. The same seed therefore
// produces byte-identical fleet fingerprints at any worker count,
// while wall-clock drops with cores.
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/openstack"
	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// Config shapes a fleet run.
type Config struct {
	// Nodes is the fleet size.
	Nodes int
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. Worker
	// count never changes results, only wall-clock — and it is the
	// memory dial: at most Workers ecosystems are alive at once.
	Workers int
	// Seed drives the whole fleet; per-node seeds derive from it via
	// NodeSeed.
	Seed uint64
	// Mode and RiskTarget select each node's operating point.
	Mode       vfr.Mode
	RiskTarget float64
	// Windows is the number of barrier epochs (one simulated minute
	// each, matching core's runtime window).
	Windows int
	// Workload is the per-node guest profile.
	Workload workload.Profile
	// Mem configures each node's DRAM system.
	Mem dram.Config
	// MemBytesPerNode is the schedulable memory exported per node.
	MemBytesPerNode uint64
	// Policy is the cloud scheduling policy.
	Policy openstack.Policy
	// VMs is the number of VM arrivals streamed at the fleet; <= 0
	// picks 3 per node.
	VMs int
	// HealthLogOut, when set, receives every node's JSON-lines health
	// log, concatenated in node order (deterministic at any worker
	// count).
	HealthLogOut io.Writer

	// Node, when set, supplies node i's full spec — silicon bin,
	// memory, operating point, guest profile, ambient — overriding the
	// homogeneous fields above. It MUST be a pure function of i: it is
	// called from worker goroutines in scheduling order, and any
	// hidden state would break the determinism contract. Start from
	// BaseSpec and mutate.
	Node func(i int) NodeSpec
	// Perturb, when set, returns the scenario intervention to apply to
	// node i immediately before it steps window w — ambient changes,
	// workload swaps (tenant churn, droop-virus injection), mid-run
	// mode switches. Same purity rule as Node: it must depend only on
	// (i, w).
	Perturb func(i, w int) Perturbation
	// Arrivals, when set, replaces the default exponential VM stream
	// with an explicit (already deterministic) arrival schedule — how
	// scenario layers express diurnal and bursty tenant patterns.
	Arrivals []workload.Arrival

	// Charact, when set, memoizes pre-deployment characterization by
	// (seed, characterization-relevant spec): nodes whose key is
	// already cached are stamped from an ecosystem snapshot instead of
	// re-running the stress/fault-injection/training campaign. Results
	// are byte-identical either way (pinned by the preset golden
	// tests); only wall-clock changes. Share one cache across the runs
	// of a campaign. Without Archetypes, node seeds within a single
	// run are all distinct, so a run-private cache only pays the
	// snapshot overhead; with Archetypes, the cache is where the
	// per-bin dedup lives (a run-private cache is created when none is
	// supplied).
	Charact *CharactCache

	// Archetypes switches characterization from per-node to per-bin:
	// every node whose spec shares an archetype bin (same silicon part
	// and DRAM configuration — see ArchetypeBin) is stamped from
	// one bin-seeded characterization (ArchetypeSeed) and reseeds its
	// runtime streams with the node's own seed (core.Ecosystem.Reseed),
	// so characterization cost is O(bins) instead of O(nodes) while
	// runtime stochasticity stays per-node. Results are deterministic
	// and worker-invariant, but intentionally differ from
	// per-node characterization: nodes in a bin share the bin's
	// published margins, weak-cell population and trained predictor
	// instead of drawing their own silicon/DRAM lottery.
	Archetypes bool

	// OnNode, when set, receives each node's finished summary as the
	// coordinator folds it: from the coordinator goroutine, in node
	// order, once every node has finished. Summary.PerNode is then left
	// nil: callers that stream do not pay O(nodes) retained reports,
	// and the fingerprint carries aggregate lines only (still
	// deterministic at any worker count, but not comparable against an
	// OnNode-less run's fingerprint). A failed run delivers no summary.
	OnNode func(NodeSummary)

	// Lifetime, when set, stretches every node's run across aging
	// epochs: each epoch is a windowed simulation, separated by
	// fast-forward gaps that advance the slow state (silicon aging,
	// DRAM telegraph noise, season, the re-characterization schedule)
	// without stepping windows, with cadence-driven campaigns at epoch
	// entries. Windows is derived from the plan's TotalWindows; an
	// explicit Windows value is ignored. The cloud layer sees the
	// concatenated epoch windows — gaps carry no tenant traffic.
	Lifetime *core.LifetimePlan

	// Drift, when set, arms drift-gated re-characterization on every
	// node (core.Deployment.SetDriftPolicy): a scheduled cadence
	// campaign runs only when the predicted margin drift since the last
	// campaign exceeds MarginFrac of the advised headroom; otherwise
	// the slot is skipped. MarginFrac 0 is the degenerate "always run"
	// policy — scheduling identical to the plain cadence.
	Drift *DriftPolicy
	// ECC, when set, arms each node's correctable-ECC-feedback
	// closed-loop undervolting controller (core.Deployment.SetECCLoop).
	ECC *ECCPolicy
	// WeakGrowthPerDay, when positive, grows every node's DRAM
	// weak-cell population across fast-forward gaps (expected new weak
	// cells per DIMM per day — core.Ecosystem.SetWeakGrowth). Zero
	// leaves the fabricated population static.
	WeakGrowthPerDay float64
}

// DriftPolicy configures drift-gated re-characterization.
type DriftPolicy struct {
	// MarginFrac is the fraction of the advised headroom the
	// accumulated critical-voltage drift must reach before a scheduled
	// campaign is allowed to run.
	MarginFrac float64
}

// ECCPolicy configures closed-loop undervolting.
type ECCPolicy struct {
	// Threshold is the per-window correctable-error count the
	// controller tolerates before backing off (0 = back off on any).
	Threshold int
}

// NodeSpec is one node's complete configuration in a (possibly
// heterogeneous) fleet.
type NodeSpec struct {
	// Part is the node's silicon bin; the zero value means the core
	// default part (the i5-4200U of Table 2).
	Part cpu.PartSpec
	// Mem and MemBytes shape the node's DRAM system and schedulable
	// memory.
	Mem      dram.Config
	MemBytes uint64
	// Mode, RiskTarget and Workload select the node's operating point
	// and guest profile.
	Mode       vfr.Mode
	RiskTarget float64
	Workload   workload.Profile
	// AmbientCPUC and AmbientDIMMC are the initial ambient
	// temperatures; zero means the core defaults (28 / 34 °C).
	AmbientCPUC  float64
	AmbientDIMMC float64
}

// BaseSpec returns the homogeneous per-node spec implied by the
// Config's top-level fields — the starting point Node hooks mutate.
func (cfg Config) BaseSpec() NodeSpec {
	return NodeSpec{
		Mem:        cfg.Mem,
		MemBytes:   cfg.MemBytesPerNode,
		Mode:       cfg.Mode,
		RiskTarget: cfg.RiskTarget,
		Workload:   cfg.Workload,
	}
}

// nodeSpec resolves node i's spec: the Node hook when set, the
// homogeneous base otherwise.
func (cfg Config) nodeSpec(i int) NodeSpec {
	if cfg.Node != nil {
		return cfg.Node(i)
	}
	return cfg.BaseSpec()
}

// StreamDefaults returns the arrival-stream shape Run uses when
// Arrivals is unset: VMs arrivals (3 per node when <= 0) spread over
// the run's horizon with half-horizon lifetimes. Scenario layers that
// pre-generate patterned schedules MUST derive their StreamConfig
// here, so steady and patterned streams can never drift apart.
func (cfg Config) StreamDefaults() workload.StreamConfig {
	n := cfg.VMs
	if n <= 0 {
		n = 3 * cfg.Nodes
	}
	horizon := time.Duration(cfg.Windows) * time.Minute
	if horizon <= 0 {
		horizon = time.Minute
	}
	return workload.StreamConfig{
		N:            n,
		MeanGap:      max(horizon/time.Duration(n+1), time.Minute),
		MeanLifetime: max(horizon/2, 10*time.Minute),
		MinLifetime:  10 * time.Minute,
	}
}

// ModeChange is a mid-run operating-mode switch.
type ModeChange struct {
	Mode       vfr.Mode
	RiskTarget float64
}

// Ambient is a mid-run ambient-temperature change.
type Ambient struct {
	CPUC, DIMMC float64
}

// Perturbation is one window's scenario intervention on one node. Nil
// fields leave the corresponding state untouched; non-nil fields
// persist until the next perturbation changes them (a workload swap
// stays swapped until explicitly reverted).
type Perturbation struct {
	// Workload swaps the node's guest profile (tenant churn, or a
	// droop-virus attack when the profile is workload.DroopVirus).
	Workload *workload.Profile
	// Mode re-enters the deployment at a different mode/risk point.
	Mode *ModeChange
	// Ambient retargets the thermal nodes' environment.
	Ambient *Ambient
}

// DefaultConfig returns a paper-shaped fleet: high-performance mode,
// the UniServer reliability-aware policy, and the testbed DRAM config.
// The migration threshold sits above the risk-target-implied failure
// probability, so proactive draining fires on nodes that are worse
// than their advised point promises, not on every healthy EOP node.
func DefaultConfig(nodes int) Config {
	policy := openstack.UniServerPolicy()
	policy.MigrationThreshold = 0.03
	return Config{
		Nodes:           nodes,
		Seed:            1,
		Mode:            vfr.ModeHighPerformance,
		RiskTarget:      0.01,
		Windows:         120,
		Workload:        workload.WebFrontend(),
		Mem:             dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45},
		MemBytesPerNode: 64 << 30,
		Policy:          policy,
	}
}

// EffectiveWorkers resolves a requested worker count the way Run
// does: non-positive means GOMAXPROCS, and the pool never exceeds the
// node count.
func EffectiveWorkers(workers, nodes int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nodes {
		workers = nodes
	}
	return workers
}

// NodeSeed derives node i's seed from the fleet seed. It is a pure
// function of (seed, i) — independent of worker count and of every
// other node — so characterization outcomes are stable however the
// pool schedules the work.
func NodeSeed(seed uint64, i int) uint64 {
	return rng.New(seed).SplitLabeled(fmt.Sprintf("fleet/node-%04d", i)).Uint64()
}

// NodeSummary is one node's contribution to the fleet summary.
type NodeSummary struct {
	Name               string
	Model              string
	Seed               uint64
	PredictorAcc       float64
	Crashes            int
	Recharacterized    int
	WindowsAtEOP       int
	CorrectableMasked  int
	DRAMCorrected      int
	MeanCPUTempC       float64
	EnergySavedWh      float64
	FinalSafeVoltageMV int
	// FinalAgeShiftMV and Epochs carry the lifetime engine's margin
	// trajectory; Epochs is nil (and both are fingerprint-silent) for
	// plain single-epoch runs, so pre-lifetime goldens are untouched.
	FinalAgeShiftMV float64             `json:"FinalAgeShiftMV,omitempty"`
	Epochs          []core.EpochSummary `json:"Epochs,omitempty"`
	// Adaptive-policy counters — all zero (JSON- and
	// fingerprint-silent) unless a policy is armed, so policy-less
	// goldens are untouched.
	RecharTriggered  int `json:",omitempty"`
	RecharSuppressed int `json:",omitempty"`
	UndervoltSteps   int `json:",omitempty"`
	ECCBackoffs      int `json:",omitempty"`
}

// Summary aggregates a fleet run. All fields except Workers and
// WallClock are deterministic functions of the Config.
type Summary struct {
	Nodes   int
	Windows int

	// Node-level aggregates (summed in node order).
	Crashes           int
	Fallbacks         int
	Recharacterized   int
	WindowsAtEOP      int
	CorrectableMasked int
	DRAMCorrected     int
	EnergySavedWh     float64
	// MeanCPUTempC averages the per-node mean die temperatures (node
	// order); ambient-temperature scenarios move it.
	MeanCPUTempC float64

	// Adaptive-policy aggregates (summed in node order): the drift
	// gate's run/skip decisions on scheduled campaigns and the ECC
	// closed loop's undervolt steps and backoffs. All zero when no
	// policy is armed.
	RecharTriggered  int `json:",omitempty"`
	RecharSuppressed int `json:",omitempty"`
	UndervoltSteps   int `json:",omitempty"`
	ECCBackoffs      int `json:",omitempty"`

	// Cloud-level aggregates from the manager.
	Scheduled            int
	Rejected             int
	Migrations           int
	SLAViolations        int
	UserFacingViolations int
	EvictedVMs           int
	EnergyKWh            float64
	MeanAvailability     float64

	// PerNode holds every node's summary in node order — nil when the
	// run streamed summaries through Config.OnNode instead.
	PerNode []NodeSummary

	// Workers and WallClock describe this particular execution; they
	// are excluded from Fingerprint — and from JSON, so serialized
	// reports stay byte-comparable across runs — so summaries can be
	// compared across worker counts.
	// Realized speedup is measured by running the same Config at
	// different worker counts and comparing WallClock — never
	// estimated from goroutine-elapsed times, which oversubscription
	// inflates.
	Workers   int           `json:"-"`
	WallClock time.Duration `json:"-"`
}

// Fingerprint serializes every deterministic field. Two runs of the
// same Config must produce equal fingerprints regardless of worker
// count — the property the paper-reproduction benchmarks rely on.
// Floats are rendered exactly (hex float format), so even a last-ulp
// divergence — the signature of order-dependent accumulation — fails
// the comparison instead of hiding under decimal rounding.
func (s Summary) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d windows=%d crashes=%d fallbacks=%d rechar=%d eop=%d corr=%d dram=%d savedWh=%s\n",
		s.Nodes, s.Windows, s.Crashes, s.Fallbacks, s.Recharacterized,
		s.WindowsAtEOP, s.CorrectableMasked, s.DRAMCorrected, exactFloat(s.EnergySavedWh))
	fmt.Fprintf(&b, "sched=%d rej=%d migr=%d sla=%d uf=%d evict=%d kwh=%s avail=%s\n",
		s.Scheduled, s.Rejected, s.Migrations, s.SLAViolations,
		s.UserFacingViolations, s.EvictedVMs, exactFloat(s.EnergyKWh), exactFloat(s.MeanAvailability))
	// Adaptive-policy runs make the policy decisions fingerprint-
	// visible. The counters are deterministic functions of the Config,
	// so the gate is too; policy-less runs emit nothing here and keep
	// their pre-policy goldens.
	if s.RecharTriggered+s.RecharSuppressed+s.UndervoltSteps+s.ECCBackoffs > 0 {
		fmt.Fprintf(&b, "policy drift+=%d drift-=%d uv=%d backoff=%d\n",
			s.RecharTriggered, s.RecharSuppressed, s.UndervoltSteps, s.ECCBackoffs)
	}
	for _, n := range s.PerNode {
		fmt.Fprintf(&b, "%s model=%s seed=%d acc=%s crashes=%d rechar=%d eop=%d corr=%d dram=%d tempC=%s savedWh=%s safeMV=%d\n",
			n.Name, n.Model, n.Seed, exactFloat(n.PredictorAcc), n.Crashes, n.Recharacterized,
			n.WindowsAtEOP, n.CorrectableMasked, n.DRAMCorrected, exactFloat(n.MeanCPUTempC),
			exactFloat(n.EnergySavedWh), n.FinalSafeVoltageMV)
		if n.RecharTriggered+n.RecharSuppressed+n.UndervoltSteps+n.ECCBackoffs > 0 {
			fmt.Fprintf(&b, "%s policy drift+=%d drift-=%d uv=%d backoff=%d\n",
				n.Name, n.RecharTriggered, n.RecharSuppressed, n.UndervoltSteps, n.ECCBackoffs)
		}
		// Lifetime runs make the margin trajectory fingerprint-visible:
		// one line per epoch (entry aging drift, published safe point,
		// campaigns run) plus the final drift. Single-epoch runs emit
		// nothing here, so their fingerprints match pre-lifetime goldens.
		for _, ep := range n.Epochs {
			fmt.Fprintf(&b, "%s epoch=%d gap=%dd win=%d age=%s safe=%d rechar=%d\n",
				n.Name, ep.Epoch, ep.GapDays, ep.Windows, exactFloat(ep.AgeShiftMV),
				ep.SafeVoltageMV, ep.Recharacterized)
		}
		if len(n.Epochs) > 0 {
			fmt.Fprintf(&b, "%s lifetime finalAge=%s\n", n.Name, exactFloat(n.FinalAgeShiftMV))
		}
	}
	return b.String()
}

// exactFloat renders f without rounding (hexadecimal significand), so
// fingerprint equality means bit-for-bit float equality.
func exactFloat(f float64) string {
	return strconv.FormatFloat(f, 'x', -1, 64)
}

// epochHealth is one node's compact per-window health record, buffered
// while the node batches through its windows and replayed into the
// cloud layer afterwards. It is the dominant O(nodes × windows) term
// of a population run's memory, so it is packed: a window's
// correctable-error count and thermal alarm level fit comfortably in
// 32 and 8 bits (alarms are 0/1/2; ECC events per one-minute window
// are single digits).
type epochHealth struct {
	failProb     float64
	correctable  int32
	thermalAlarm uint8
	crashed      bool
}

// nodeState is one node's slot: the state that outlives the node's
// fused worker task. The ecosystem and deployment live only inside the
// task — what survives is the compact health sequence, the deployment
// summary, the exported cloud node and (when requested) the log
// buffer. Exactly one worker touches a slot while the pool runs; the
// coordinator reads slots only after the pool's join.
type nodeState struct {
	name  string
	seed  uint64
	model string

	osNode       *openstack.Node
	predictorAcc float64
	depSum       core.DeploymentSummary
	log          bytes.Buffer

	// health[w] is the node's window-w report; errWindow is the window
	// the node failed at — cfg.Windows when it didn't, charactWindow
	// for failures before the first window (characterization, mode
	// entry, export).
	health    []epochHealth
	errWindow int

	err error
}

// charactWindow is the errWindow value of failures that precede the
// first runtime window; it sorts before every real window, so
// pre-deployment failures win the earliest-failure selection exactly
// as they did when characterization was its own phase.
const charactWindow = -1

// repairTime is how long a crashed node stays offline in the cloud
// layer's replay.
const repairTime = 15 * time.Minute

// specOptions resolves a node's spec and seed into the core Options
// both characterization paths build from; keeping it single-sourced is
// what guarantees the cached and direct paths configure identical
// ecosystems.
func specOptions(spec NodeSpec, seed uint64) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Mem = spec.Mem
	opts.AmbientCPUC = spec.AmbientCPUC
	opts.AmbientDIMMC = spec.AmbientDIMMC
	if spec.Part.Cores != 0 {
		opts.SetPart(spec.Part)
	}
	return opts
}

// charactBuilder returns the direct-characterization closure for
// (spec, seed): build the ecosystem, run the full pre-deployment
// pipeline, log into out (nil discards). Every characterization —
// direct, cached, archetype — runs exactly this, so no two can ever
// configure divergent ecosystems.
func charactBuilder(spec NodeSpec, seed uint64) charactFunc {
	return func(out io.Writer) (*core.Ecosystem, error) {
		opts := specOptions(spec, seed)
		opts.HealthLogOut = out
		eco, err := core.New(opts)
		if err != nil {
			return nil, err
		}
		if _, err := eco.PreDeployment(); err != nil {
			return nil, err
		}
		return eco, nil
	}
}

// characterize is the one way a node gets its characterized
// ecosystem. The per-node log buffer (and the JSON marshal every
// window that fills it) exists only when the caller asked for the log;
// the health daemon's triggers and retention behave identically either
// way.
//
// With no cache it builds and characterizes directly. With one, the
// cache runs that build at most once per key — logging into a
// cache-owned buffer — and every consumer, the characterizing node
// included, replays the captured log bytes and stamps an independent
// node from the snapshot with its own log writer and ambient. Routing
// the first consumer through the stamp too pins the cached path to the
// direct path's goldens: a stamp imperfection shows up as a
// fingerprint divergence instead of hiding behind a warm cache. The
// key is the node's own seed and spec; under archetypes it is the
// bin's, the bin seed (ArchetypeSeed) drives the campaign, and each
// node reseeds its runtime streams with its own seed — which node
// fills the bin entry first can never matter.
func (s *nodeState) characterize(cache *CharactCache, arena *core.RestoreArena, bins *binMemo,
	spec NodeSpec, archetypes, wantLog bool) (*core.Ecosystem, error) {
	var out io.Writer
	if wantLog {
		out = &s.log
	}
	if cache == nil {
		return charactBuilder(spec, s.seed)(out)
	}
	key, seed := bins.job(s.seed, spec, archetypes)
	snap, logBytes, err := cache.characterized(key, wantLog, charactBuilder(spec, seed))
	if err != nil {
		return nil, err
	}
	if wantLog {
		s.log.Write(logBytes)
	}
	eco, err := snap.RestoreInto(arena, core.RestoreOptions{
		HealthLogOut: out,
		AmbientCPUC:  spec.AmbientCPUC,
		AmbientDIMMC: spec.AmbientDIMMC,
	})
	if err != nil {
		return nil, err
	}
	if archetypes {
		if err := eco.Reseed(s.seed); err != nil {
			return nil, err
		}
	}
	return eco, nil
}

// Run executes a full fleet lifecycle: every node's fused
// characterize→deploy→step task fans out across a worker pool. Once
// the pool drains, the coordinator folds every node into the summary
// in node order, assembles the cluster, streams the VM arrivals and
// feeds the buffered health into the cloud layer window by window.
// Every ordered operation runs on the coordinator in node order, so
// results are byte-identical to the strictly-phased engine at any
// worker count.
func Run(cfg Config) (Summary, error) {
	start := time.Now()
	if cfg.Nodes <= 0 {
		return Summary{}, errors.New("fleet: need at least one node")
	}
	if cfg.Windows < 0 {
		return Summary{}, errors.New("fleet: negative window count")
	}
	// A plain run is the one-epoch plan of cfg.Windows windows.
	plan := core.LifetimePlan{EpochWindows: []int{cfg.Windows}}
	if cfg.Lifetime != nil {
		if err := cfg.Lifetime.Validate(); err != nil {
			return Summary{}, fmt.Errorf("fleet: lifetime plan: %w", err)
		}
		// The plan owns the window axis: the cloud layer replays the
		// concatenated epoch windows.
		plan = *cfg.Lifetime
		cfg.Windows = plan.TotalWindows()
	}
	workers := EffectiveWorkers(cfg.Workers, cfg.Nodes)
	charact := cfg.Charact
	if charact == nil && cfg.Archetypes {
		// The cache is where archetype dedup lives: a run without a
		// caller-shared cache gets a run-private one.
		charact = NewCharactCache()
	}

	states := make([]*nodeState, cfg.Nodes)
	for i := range states {
		states[i] = &nodeState{
			name:      fmt.Sprintf("uniserver-%02d", i),
			seed:      NodeSeed(cfg.Seed, i),
			errWindow: cfg.Windows,
		}
	}

	wantLog := cfg.HealthLogOut != nil
	bins := newBinMemo(cfg.Seed, wantLog)

	// runNode is one node's fused lifecycle — characterization, mode
	// entry, cloud export, the full window sequence, and the final
	// deployment summary. The ecosystem and deployment are locals: when
	// the task returns, only the compact slot state survives — nothing
	// retained aliases ecosystem internals, which is what licenses the
	// worker's restore arena to overwrite the graph in place for the
	// next node. At most `workers` ecosystems exist at any instant,
	// however many nodes the fleet has; cached-path nodes reuse their
	// worker's one arena graph instead of rebuilding it. A failing node
	// records its error and window and stops; every other node still
	// steps to its horizon, so nothing a node computes depends on when
	// another one failed.
	runNode := func(i int, arena *core.RestoreArena) {
		s := states[i]
		failNode := func(w int, err error) {
			s.err, s.errWindow = err, w
		}
		spec := cfg.nodeSpec(i)
		eco, err := s.characterize(charact, arena, bins, spec, cfg.Archetypes, wantLog)
		if err != nil {
			failNode(charactWindow, fmt.Errorf("fleet: node %d characterization: %w", i, err))
			return
		}
		s.model = eco.Machine.Spec.Model
		s.predictorAcc = eco.PredictorAcc()
		dep, err := eco.StartDeployment(spec.Mode, spec.RiskTarget, spec.Workload)
		if err != nil {
			failNode(charactWindow, fmt.Errorf("fleet: node %d mode entry: %w", i, err))
			return
		}
		dep.SetCadence(plan.RecharactEvery)
		if cfg.Drift != nil {
			dep.SetDriftPolicy(cfg.Drift.MarginFrac)
		}
		if cfg.ECC != nil {
			dep.SetECCLoop(cfg.ECC.Threshold)
		}
		if cfg.WeakGrowthPerDay > 0 {
			eco.SetWeakGrowth(cfg.WeakGrowthPerDay)
		}
		n, err := eco.Node(s.name, spec.MemBytes)
		if err != nil {
			failNode(charactWindow, fmt.Errorf("fleet: node %d export: %w", i, err))
			return
		}
		s.osNode = n

		// Batched window stepping: the node runs its entire window
		// sequence here, buffering a compact health record per window.
		// Node simulations are mutually independent and independent of
		// the cloud layer (the manager never feeds back into a node's
		// ecosystem), so batching removes the per-window barrier — and
		// its goroutine churn — without moving a single rng draw. The
		// scenario interventions land immediately before the window they
		// target: Perturb is pure in (i, w) and touches only node i's
		// state. The buffer is allocated full-length up front and
		// written by index, so it never regrows; the coordinator's replay
		// reads it only after every worker has returned.
		//
		// The lifetime axis: each epoch batches its windows; between
		// epochs the node fast-forwards the gap and honours the
		// re-characterization cadence. Gap failures are charged to the
		// first window of the entered epoch — the earliest window the
		// failure can shadow.
		s.health = make([]epochHealth, cfg.Windows)
		w := 0
		for ei, windows := range plan.EpochWindows {
			if ei > 0 {
				if err := dep.FastForward(plan.Gaps[ei-1]); err != nil {
					failNode(w, fmt.Errorf("fleet: node %d epoch %d gap: %w", i, ei, err))
					return
				}
				if _, err := dep.MaybeRecharacterize(); err != nil {
					failNode(w, fmt.Errorf("fleet: node %d epoch %d entry campaign: %w", i, ei, err))
					return
				}
			}
			for end := w + windows; w < end; w++ {
				if cfg.Perturb != nil {
					p := cfg.Perturb(i, w)
					if p.Ambient != nil {
						eco.SetAmbient(p.Ambient.CPUC, p.Ambient.DIMMC)
					}
					if p.Workload != nil {
						dep.SetWorkload(*p.Workload)
					}
					if p.Mode != nil {
						if err := dep.SwitchMode(p.Mode.Mode, p.Mode.RiskTarget); err != nil {
							failNode(w, fmt.Errorf("fleet: node %d window %d mode switch: %w", i, w, err))
							return
						}
					}
				}
				rep, err := dep.Step()
				if err != nil {
					failNode(w, fmt.Errorf("fleet: node %d window %d: %w", i, w, err))
					return
				}
				fp, err := eco.PredictedFailProb()
				if err != nil {
					failNode(w, fmt.Errorf("fleet: node %d window %d: %w", i, w, err))
					return
				}
				s.health[w] = epochHealth{
					failProb:     fp,
					correctable:  int32(rep.Correctable),
					thermalAlarm: uint8(rep.ThermalAlarm),
					crashed:      rep.Crashed,
				}
			}
		}
		s.depSum = dep.Summary()
	}

	// flushHealthLog concatenates every node's JSON-lines log in node
	// order. It also runs on error paths so a failed run still leaves
	// its diagnostics behind — the moment the log matters most; a flush
	// that fails there is joined to the run's error. Buffering until
	// here is deliberate: streaming from workers would interleave nodes
	// nondeterministically.
	flushHealthLog := func() error {
		if cfg.HealthLogOut == nil {
			return nil
		}
		for _, s := range states {
			if _, err := cfg.HealthLogOut.Write(s.log.Bytes()); err != nil {
				return fmt.Errorf("fleet: writing health log: %w", err)
			}
		}
		return nil
	}
	fail := func(err error) (Summary, error) {
		if ferr := flushHealthLog(); ferr != nil {
			return Summary{}, errors.Join(err, ferr)
		}
		return Summary{}, err
	}

	// The node-level merge: fold one node into the running aggregates
	// in node order — each float accumulator sees its contributions in
	// exactly the order the non-streaming engine added them, which is
	// what makes OnNode fingerprint-invariant on the aggregate lines.
	sum := Summary{
		Nodes:   cfg.Nodes,
		Windows: cfg.Windows,
		Workers: workers,
	}
	if cfg.OnNode == nil {
		sum.PerNode = make([]NodeSummary, 0, cfg.Nodes)
	}
	foldNode := func(s *nodeState) {
		d := s.depSum
		sum.Crashes += d.Crashes
		sum.Fallbacks += d.Fallbacks
		sum.Recharacterized += d.Recharacterized
		sum.WindowsAtEOP += d.WindowsAtEOP
		sum.CorrectableMasked += d.CorrectableMasked
		sum.DRAMCorrected += d.DRAMCorrected
		sum.EnergySavedWh += d.EnergySavedWh
		sum.MeanCPUTempC += d.MeanCPUTempC
		sum.RecharTriggered += d.RecharTriggered
		sum.RecharSuppressed += d.RecharSuppressed
		sum.UndervoltSteps += d.UndervoltSteps
		sum.ECCBackoffs += d.ECCBackoffs
		ns := NodeSummary{
			Name:               s.name,
			Model:              s.model,
			Seed:               s.seed,
			PredictorAcc:       s.predictorAcc,
			Crashes:            d.Crashes,
			Recharacterized:    d.Recharacterized,
			WindowsAtEOP:       d.WindowsAtEOP,
			CorrectableMasked:  d.CorrectableMasked,
			DRAMCorrected:      d.DRAMCorrected,
			MeanCPUTempC:       d.MeanCPUTempC,
			EnergySavedWh:      d.EnergySavedWh,
			FinalSafeVoltageMV: d.FinalSafeVoltageMV,
			Epochs:             d.Epochs,
			RecharTriggered:    d.RecharTriggered,
			RecharSuppressed:   d.RecharSuppressed,
			UndervoltSteps:     d.UndervoltSteps,
			ECCBackoffs:        d.ECCBackoffs,
		}
		if len(d.Epochs) > 0 {
			ns.FinalAgeShiftMV = d.FinalAgeShiftMV
		}
		// The fold is the last reader of the deployment summary: zero it
		// so the only per-node state retained to the replay phase is the
		// compact health buffer and the exported cloud-layer node.
		s.depSum = core.DeploymentSummary{}
		if cfg.OnNode != nil {
			cfg.OnNode(ns)
			return
		}
		sum.PerNode = append(sum.PerNode, ns)
	}

	// ---- Execution ----
	//
	// Workers claim node indices in node order from one atomic cursor
	// and run the fused node tasks back to back, with no hand-off
	// goroutine and no wait between them. Every ordered operation runs
	// on the coordinator goroutine after the pool's join, in the phased
	// engine's order: the failure pick, the fold in node order, then
	// the cloud-layer replay in window order × node order. The join is
	// what makes every slot safely visible to the coordinator.
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One restore arena per worker goroutine: the cached paths
			// stamp each node's ecosystem into it, reusing the graph
			// built by the worker's first node.
			arena := core.NewRestoreArena()
			for {
				i := int(next.Add(1) - 1)
				if i >= cfg.Nodes {
					return
				}
				runNode(i, arena)
			}
		}()
	}

	// Deterministic VM arrival stream for the scheduler to chew on — an
	// explicit schedule (scenario layers) or the default exponential
	// stream. A pure function of the Config, built while the pool
	// computes; its error surfaces only if no node failed.
	arrivals, streamErr := cfg.Arrivals, error(nil)
	if arrivals == nil {
		arrivals, streamErr = workload.Stream(cfg.StreamDefaults(), rng.New(cfg.Seed).SplitLabeled("fleet/arrivals"))
	}
	wg.Wait()

	// Earliest failing window wins; ties resolve to the lowest node
	// index (states are scanned in node order). Pre-deployment failures
	// carry charactWindow and therefore outrank every stepping failure,
	// exactly as when characterization was a separate phase; node
	// failures outrank stream and replay errors, which a failed run
	// never reaches. A failed run folds nothing, so OnNode sees no
	// summary.
	var failErr error
	failWindow := 0
	for _, s := range states {
		if s.err != nil && (failErr == nil || s.errWindow < failWindow) {
			failWindow, failErr = s.errWindow, s.err
		}
	}
	if failErr != nil {
		return fail(failErr)
	}
	if streamErr != nil {
		return fail(streamErr)
	}
	for _, s := range states {
		foldNode(s)
	}

	// Cluster assembly in node order, then the replay: the cloud layer
	// advances in window order over the buffered health. Arrivals and
	// departures resolve before each epoch (so newly placed VMs are
	// exposed to that window's crash/migration outcome, as in the
	// stream simulator), then the epoch's health lands in the scheduler
	// in node order — byte-identical inputs in the identical order as
	// under per-window barriers, at any worker count.
	osNodes := make([]*openstack.Node, len(states))
	for i, s := range states {
		osNodes[i] = s.osNode
	}
	mgr, err := openstack.NewManager(cfg.Policy, osNodes...)
	if err != nil {
		return fail(err)
	}
	cursor := openstack.NewStreamCursor(arrivals)
	health := make([]openstack.NodeHealth, len(states))
	for w := 0; w < cfg.Windows; w++ {
		now := time.Duration(w) * time.Minute
		cursor.Advance(mgr, now)
		for i, s := range states {
			h := s.health[w]
			health[i] = openstack.NodeHealth{
				Name:         s.name,
				FailProb:     h.failProb,
				Crashed:      h.crashed,
				Correctable:  int(h.correctable),
				ThermalAlarm: int(h.thermalAlarm),
			}
		}
		stats, err := mgr.StepFleet(health, time.Minute, now, repairTime)
		if err != nil {
			return fail(err)
		}
		sum.EvictedVMs += stats.EvictedVMs
	}

	sum.MeanCPUTempC /= float64(cfg.Nodes)
	sum.Scheduled = mgr.Scheduled
	sum.Rejected = mgr.Rejected
	sum.Migrations = mgr.Migrations
	sum.SLAViolations = mgr.SLAViolations
	sum.UserFacingViolations = mgr.UserFacingViolations
	sum.EnergyKWh = mgr.EnergyJ / 3.6e6
	sum.MeanAvailability = mgr.MeanAvailability()

	if err := flushHealthLog(); err != nil {
		return sum, err
	}
	sum.WallClock = time.Since(start)
	return sum, nil
}
