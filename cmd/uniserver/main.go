// Command uniserver runs the full cross-layer ecosystem of Figure 2.
// With -nodes 1 (the default) it narrates one simulated node:
// pre-deployment characterization (StressLog with GA viruses, fault
// injection with selective protection, Predictor training), then
// deployment at the advised extended operating point, then a monitored
// runtime with error masking.
//
// Every fleet run goes through the scenario layer. -scenario runs a
// bundled preset (silicon-bin mixes, thermal seasons, bursty tenants,
// mode churn, droop attacks; -list-scenarios names them), and -nodes N
// lowers the fleet flags (-windows, -mode, -risk, -lifetime,
// -drift-margin, -ecc-loop, -archetypes) onto an inline
// scenario. Either way N nodes characterize and step in parallel
// across -workers goroutines, feeding per-epoch health into the
// reliability-aware cloud scheduler, and the run prints a fingerprint
// hash: same scenario, same seed — same hash, at any worker count.
// -campaign fans a scenario×seed grid out in parallel, printing the
// comparative per-scenario metrics and (with -report) a
// machine-readable JSON report.
//
// Two subcommands wrap the campaign layer in a persistent service:
// `uniserver serve` runs the HTTP campaign service (submissions stream
// NDJSON, every completed cell persists into a content-addressed
// result store, killed servers resume incomplete runs on restart), and
// `uniserver diff` compares two stored runs scenario by scenario. The
// flag-based campaign mode gains -result-store, which runs the same
// engine one-shot: interrupted campaigns leave a resumable store
// behind, and rerunning the command serves completed cells from it.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"uniserver/internal/campaignd"
	"uniserver/internal/core"
	"uniserver/internal/dram"
	"uniserver/internal/fleet"
	"uniserver/internal/resultstore"
	"uniserver/internal/scenario"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("uniserver: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			if err := runServe(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		case "diff":
			if err := runDiff(os.Args[2:], os.Stdout); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("uniserver", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "simulation seed (same seed, same outcomes)")
	mode := fs.String("mode", "high-performance", "operating mode: nominal | high-performance | low-power")
	risk := fs.Float64("risk", 0.01, "per-window failure-probability target")
	windows := fs.Int("windows", 120, "runtime observation windows to simulate")
	logfile := fs.String("healthlog", "", "write the HealthLog JSON-lines file here")
	closedLoop := fs.Bool("closed-loop", false,
		"run the supervised deployment loop (crash fallback, aging, auto re-characterization)")
	nodes := fs.Int("nodes", 1, "fleet size; >1 runs the fleet flags as an inline scenario on the concurrent multi-node engine")
	workers := fs.Int("workers", 0,
		"worker goroutines for the fleet engine (0 = GOMAXPROCS; campaigns parallelize across cells instead, so 0 = 1 worker per cell)")
	archetypes := fs.Bool("archetypes", false,
		"fleet mode: characterize once per silicon/DRAM bin and clone per node (O(bins) campaigns instead of O(nodes); deterministic, but a different experiment than per-node characterization)")
	listScenarios := fs.Bool("list-scenarios", false, "list the bundled scenario presets and exit")
	scenarioName := fs.String("scenario", "", "run a scenario preset (see -list-scenarios); -nodes/-windows rescale it")
	campaignSpec := fs.String("campaign", "",
		"run a scenario campaign: 'smoke', 'all', or comma-separated preset names; grid is scenarios x -seeds")
	seedCount := fs.Int("seeds", 1, "campaign: seeds per scenario (seed, seed+1, ...)")
	parallel := fs.Int("parallel", 0,
		"campaign: concurrent grid cells (0 = GOMAXPROCS); workers pull cells as they free up, results stay in grid order")
	charactDir := fs.String("charact-dir", "",
		"campaign: spill characterization snapshots to this versioned cache dir so separate runs (CLI, CI) share them across processes; refuses a dir written by a different snapshot-format version")
	reportPath := fs.String("report", "", "campaign: write the machine-readable JSON report to this file")
	resultStore := fs.String("result-store", "",
		"campaign: persist every completed cell into this content-addressed result store; interrupted runs resume from it (rerun the same command), identical cells are served without re-executing, and stored runs feed 'uniserver diff'")
	lifetimeSpec := fs.String("lifetime", "",
		"run a multi-epoch lifetime 'EPOCHSxGAPDAYS' (e.g. 4x90): each epoch simulates -windows windows, gaps fast-forward aging between them")
	gapDuty := fs.Float64("gap-duty", 0.6,
		"lifetime: mean silicon stress (activity) across fast-forward gaps, in [0,1]")
	recharactEvery := fs.Int("recharact-every", 0,
		"lifetime: scheduled re-characterization cadence in days (0 = the core default, ~75 days); campaigns run at epoch entries when due")
	driftMargin := fs.Float64("drift-margin", 0,
		"fleet lifetime: drift-gate scheduled re-characterizations — run one only when predicted margin drift since the last campaign exceeds this fraction of the advised headroom (0 = off, the plain cadence)")
	eccLoop := fs.Bool("ecc-loop", false,
		"fleet mode: closed-loop undervolting — each node steps its point below the advised one while correctable ECC stays quiet and backs off on onset")
	cpuProfile := fs.String("cpuprofile", "",
		"write a CPU profile to this file (pprof format); covers the whole run, any mode")
	memProfile := fs.String("memprofile", "",
		"write a heap profile to this file at exit (after a final GC), for peak-memory and allocation analysis")
	mutexProfile := fs.String("mutexprofile", "",
		"write a mutex-contention profile to this file at exit — the parallel-efficiency tool: it names the locks workers serialize on")
	fs.Parse(args)

	// Which flags did the user set explicitly? -nodes/-windows double
	// as scenario rescale overrides, but only when actually given.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *listScenarios {
		fmt.Fprintf(out, "%-16s %6s %8s %5s  %s\n", "NAME", "NODES", "WINDOWS", "VMS", "DESCRIPTION")
		for _, s := range scenario.Presets() {
			vms := s.VMs
			if vms <= 0 {
				vms = 3 * s.Nodes
			}
			fmt.Fprintf(out, "%-16s %6d %8d %5d  %s\n", s.Name, s.Nodes, s.Windows, vms, s.Description)
		}
		return nil
	}

	var m vfr.Mode
	switch *mode {
	case "nominal":
		m = vfr.ModeNominal
	case "high-performance":
		m = vfr.ModeHighPerformance
	case "low-power":
		m = vfr.ModeLowPower
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	// Reject meaningless flag combinations before touching the
	// filesystem: os.Create truncates, and a usage error must not cost
	// the user an existing health log.
	scenarioMode := *scenarioName != "" || *campaignSpec != ""
	if *scenarioName != "" && *campaignSpec != "" {
		return fmt.Errorf("-scenario and -campaign are mutually exclusive")
	}
	if scenarioMode {
		if *closedLoop {
			return fmt.Errorf("-closed-loop does not apply to scenario runs")
		}
		if set["mode"] || set["risk"] {
			return fmt.Errorf("scenarios declare their own mode and risk target; -mode/-risk do not apply")
		}
		if set["lifetime"] || set["recharact-every"] || set["gap-duty"] {
			return fmt.Errorf("scenarios declare their own lifetime (see the aging-year and recharact-* presets); -lifetime/-recharact-every/-gap-duty do not apply")
		}
		if set["archetypes"] {
			return fmt.Errorf("scenarios declare their own characterization strategy (see the fleet-100k preset); -archetypes does not apply")
		}
		if set["drift-margin"] || set["ecc-loop"] {
			return fmt.Errorf("scenarios declare their own adaptive policies (see the drift-cadence and ecc-closedloop presets); -drift-margin/-ecc-loop do not apply")
		}
	} else {
		if *nodes > 1 && *closedLoop {
			return fmt.Errorf("-closed-loop only applies to -nodes 1; the fleet engine always runs the supervised loop")
		}
		if *nodes <= 1 && *workers != 0 {
			return fmt.Errorf("-workers only applies to fleet mode (-nodes > 1); the single-node loop is sequential")
		}
		if *nodes <= 1 && set["archetypes"] {
			return fmt.Errorf("-archetypes only applies to fleet mode (-nodes > 1)")
		}
		if *nodes <= 1 && (set["drift-margin"] || set["ecc-loop"]) {
			return fmt.Errorf("-drift-margin and -ecc-loop only apply to fleet mode (-nodes > 1)")
		}
	}
	if *campaignSpec != "" && *logfile != "" {
		return fmt.Errorf("-healthlog does not apply to campaigns (many runs, one file)")
	}
	if *reportPath != "" && *campaignSpec == "" {
		return fmt.Errorf("-report only applies to -campaign")
	}
	if set["seeds"] && *campaignSpec == "" {
		return fmt.Errorf("-seeds only applies to -campaign; use -seed for a single run")
	}
	if set["parallel"] && *campaignSpec == "" {
		return fmt.Errorf("-parallel only applies to -campaign; use -workers for a single fleet run")
	}
	if *charactDir != "" && *campaignSpec == "" {
		return fmt.Errorf("-charact-dir only applies to -campaign")
	}
	if *resultStore != "" && *campaignSpec == "" {
		return fmt.Errorf("-result-store only applies to -campaign")
	}
	if *resultStore != "" && *charactDir != "" {
		return fmt.Errorf("-result-store keeps characterization snapshots inside the store; -charact-dir does not apply")
	}
	if (set["recharact-every"] || set["gap-duty"]) && *lifetimeSpec == "" {
		return fmt.Errorf("-recharact-every and -gap-duty only apply with -lifetime")
	}
	var life scenario.LifetimeModel
	if *lifetimeSpec != "" {
		epochs, gapDays, err := parseLifetime(*lifetimeSpec)
		if err != nil {
			return err
		}
		life = scenario.LifetimeModel{Epochs: epochs, GapDays: gapDays, GapDuty: *gapDuty, RecharactEveryDays: *recharactEvery}
	}

	// -nodes/-windows rescale scenarios only when given explicitly
	// (their defaults mean "preset size" here, not 1 node).
	nodesOverride, windowsOverride := 0, 0
	if set["nodes"] {
		nodesOverride = *nodes
	}
	if set["windows"] {
		windowsOverride = *windows
	}

	// Resolve the fleet run's scenario: a preset, or the fleet flags
	// lowered onto an inline one. Validating it here keeps declaration
	// errors ahead of the filesystem, like the flag checks above.
	var fleetScenario *scenario.Scenario
	switch {
	case *scenarioName != "":
		s, err := scenario.ByName(*scenarioName)
		if err != nil {
			return err
		}
		if nodesOverride > 0 || windowsOverride > 0 {
			s = s.Scale(nodesOverride, windowsOverride)
		}
		fleetScenario = &s
	case *campaignSpec == "" && *nodes > 1:
		fleetScenario = &scenario.Scenario{
			Name:            "cli",
			Description:     "fleet declared by the command-line flags",
			Nodes:           *nodes,
			Windows:         *windows,
			Mode:            m,
			RiskTarget:      *risk,
			Lifetime:        life,
			DriftMarginFrac: *driftMargin,
			ECCLoop:         *eccLoop,
			Archetypes:      *archetypes,
		}
	}
	var plan *core.LifetimePlan
	if fleetScenario != nil {
		if err := fleetScenario.Validate(); err != nil {
			return err
		}
	} else if life.Epochs > 0 {
		// The single-node loop takes the lifetime as a core plan.
		p := core.UniformPlan(life.Epochs, *windows, life.GapDays, life.GapDuty)
		p.RecharactEvery = time.Duration(life.RecharactEveryDays) * 24 * time.Hour
		if err := p.Validate(); err != nil {
			return err
		}
		plan = &p
	}

	// Profiling hooks: armed before any simulation work so the CPU
	// profile covers characterization through replay. The deferred stop
	// runs on every exit path; profile-write failures warn rather than
	// change the run's exit code — the simulation result is already
	// correct.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, *mutexProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Printf("WARNING: %v", err)
		}
	}()

	// The health log must be closed (flushing the JSON lines) on every
	// exit path, including errors — hence the run()/error shape instead
	// of log.Fatal, which would skip deferred closes.
	var healthOut *os.File
	if *logfile != "" {
		f, err := os.Create(*logfile)
		if err != nil {
			return fmt.Errorf("healthlog file: %v", err)
		}
		healthOut = f
		defer func() {
			if healthOut != nil {
				healthOut.Close()
			}
		}()
	}
	closeHealthLog := func() error {
		if healthOut == nil {
			return nil
		}
		err := healthOut.Close()
		healthOut = nil
		if err != nil {
			return fmt.Errorf("closing healthlog: %w", err)
		}
		return nil
	}

	switch {
	case fleetScenario != nil:
		if err := runScenario(out, *fleetScenario, *seed, *workers, healthOut); err != nil {
			return err
		}
	case *campaignSpec != "":
		// SIGINT/SIGTERM cancel the campaign at cell boundaries instead
		// of killing the process mid-print: the partial fingerprint and
		// store state are emitted, so interrupted runs are resumable.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err := runCampaignCLI(ctx, out, campaignOpts{
			spec:            *campaignSpec,
			nodesOverride:   nodesOverride,
			windowsOverride: windowsOverride,
			seed:            *seed,
			seedCount:       *seedCount,
			workers:         *workers,
			parallel:        *parallel,
			charactDir:      *charactDir,
			reportPath:      *reportPath,
			storeDir:        *resultStore,
		})
		if err != nil {
			return err
		}
	default:
		if err := runSingleNode(out, *seed, m, *risk, *windows, *closedLoop, plan, healthOut); err != nil {
			return err
		}
	}
	return closeHealthLog()
}

// startProfiles arms the requested pprof outputs and returns the
// teardown that writes and closes them. CPU profiling streams from
// start; the heap profile snapshots at stop (after a forced GC, so it
// reflects live objects, not garbage); mutex profiling samples lock
// contention from start and dumps at stop. An empty path disables that
// profile. The returned stop is safe to call exactly once.
func startProfiles(cpuPath, memPath, mutexPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %v", err)
		}
	}
	if mutexPath != "" {
		// Sample every contention event: simulator runs hold locks rarely
		// enough that full sampling is affordable, and an efficiency
		// investigation wants the complete picture.
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %v", err))
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				errs = append(errs, fmt.Errorf("memprofile: %v", err))
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					errs = append(errs, fmt.Errorf("memprofile: %v", err))
				}
				if err := f.Close(); err != nil {
					errs = append(errs, fmt.Errorf("memprofile: %v", err))
				}
			}
		}
		if mutexPath != "" {
			f, err := os.Create(mutexPath)
			if err != nil {
				errs = append(errs, fmt.Errorf("mutexprofile: %v", err))
			} else {
				if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
					errs = append(errs, fmt.Errorf("mutexprofile: %v", err))
				}
				if err := f.Close(); err != nil {
					errs = append(errs, fmt.Errorf("mutexprofile: %v", err))
				}
			}
			runtime.SetMutexProfileFraction(0)
		}
		return errors.Join(errs...)
	}, nil
}

// parseLifetime reads the -lifetime 'EPOCHSxGAPDAYS' spec: uniform
// epochs of -windows windows each, separated by identical gaps.
func parseLifetime(spec string) (epochs, gapDays int, err error) {
	parts := strings.SplitN(spec, "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-lifetime wants EPOCHSxGAPDAYS (e.g. 4x90), got %q", spec)
	}
	epochs, err1 := strconv.Atoi(parts[0])
	gapDays, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || epochs < 2 {
		return 0, 0, fmt.Errorf("-lifetime wants EPOCHSxGAPDAYS with at least 2 epochs, got %q", spec)
	}
	return epochs, gapDays, nil
}

// printTrajectory renders a node's per-epoch margin trajectory.
func printTrajectory(out io.Writer, epochs []core.EpochSummary, finalAge float64) {
	for _, ep := range epochs {
		gap := "deployment"
		if ep.GapDays > 0 {
			gap = fmt.Sprintf("+%d days", ep.GapDays)
		}
		fmt.Fprintf(out, "    epoch %d (%-10s): age drift %5.1f mV, safe point %d mV, %d windows, %d re-characterizations\n",
			ep.Epoch, gap, ep.AgeShiftMV, ep.SafeVoltageMV, ep.Windows, ep.Recharacterized)
	}
	fmt.Fprintf(out, "    end of life: +%.1f mV accumulated critical-voltage drift\n", finalAge)
}

// maxPerNodePrint bounds the per-node detail a run retains and
// prints: above it the engine streams per-node summaries through the
// OnNode callback instead of holding O(nodes) reports, so
// population-scale runs stay in bounded memory. The cut depends only
// on the node count, so the printed fingerprint stays deterministic —
// but a streamed run's fingerprint carries aggregate lines only and is
// not comparable against a small retained run's.
const maxPerNodePrint = 64

// runScenario runs one fleet scenario — a preset or the fleet flags
// lowered onto an inline one — and prints its summary plus the
// determinism fingerprint hash.
func runScenario(out io.Writer, s scenario.Scenario, seed uint64, workers int, healthOut *os.File) error {
	cfg, err := s.FleetConfig(seed)
	if err != nil {
		return err
	}
	cfg.Workers = workers
	if healthOut != nil {
		cfg.HealthLogOut = healthOut
	}
	var cache *fleet.CharactCache
	if s.Archetypes {
		cache = fleet.NewCharactCache()
		cfg.Charact = cache
	}
	streamed := 0
	if s.Nodes > maxPerNodePrint {
		cfg.OnNode = func(fleet.NodeSummary) { streamed++ }
	}
	fmt.Fprintf(out, "== scenario %s: %s ==\n", s.Name, s.Description)
	fmt.Fprintf(out, "   %d nodes, %d windows, seed %d, %d workers (GOMAXPROCS %d)\n",
		s.Nodes, s.Windows, seed, fleet.EffectiveWorkers(workers, s.Nodes), runtime.GOMAXPROCS(0))
	var sum fleet.Summary
	var runErr error
	peak := fleet.HeapWatermark(func() { sum, runErr = fleet.Run(cfg) })
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(out, "  windows at EOP:           %d of %d node-windows\n", sum.WindowsAtEOP, sum.Nodes*sum.Windows)
	fmt.Fprintf(out, "  node crashes (recovered): %d (%d re-characterizations)\n", sum.Crashes, sum.Recharacterized)
	fmt.Fprintf(out, "  correctable masked:       %d\n", sum.CorrectableMasked)
	fmt.Fprintf(out, "  node energy saved:        %.2f Wh\n", sum.EnergySavedWh)
	fmt.Fprintf(out, "  VMs scheduled/rejected:   %d / %d\n", sum.Scheduled, sum.Rejected)
	fmt.Fprintf(out, "  proactive migrations:     %d\n", sum.Migrations)
	fmt.Fprintf(out, "  SLA violations:           %d (%d user-facing)\n", sum.SLAViolations, sum.UserFacingViolations)
	fmt.Fprintf(out, "  fleet energy:             %.3f kWh, mean availability %.4f\n", sum.EnergyKWh, sum.MeanAvailability)
	fmt.Fprintf(out, "  wall-clock:               %v at %d workers\n",
		sum.WallClock.Round(time.Millisecond), sum.Workers)
	fmt.Fprintf(out, "  peak heap:                %.1f MiB\n", float64(peak)/(1<<20))
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(out, "  archetype bins:           %d characterized, %d templates compiled, %d nodes cloned\n",
			st.Misses, st.Compiled, st.Hits)
	}
	if streamed > 0 {
		fmt.Fprintf(out, "  per-node summaries:       %d streamed, none retained (fleet > %d nodes)\n",
			streamed, maxPerNodePrint)
	}
	for _, n := range sum.PerNode {
		fmt.Fprintf(out, "    %-14s %-9s crashes %2d  eop %3d/%d  saved %7.2f Wh  safe %d mV\n",
			n.Name, n.Model, n.Crashes, n.WindowsAtEOP, sum.Windows, n.EnergySavedWh, n.FinalSafeVoltageMV)
	}
	if len(sum.PerNode) > 0 && len(sum.PerNode[0].Epochs) > 0 {
		fmt.Fprintf(out, "\n  margin trajectory (%s; %d re-characterizations fleet-wide):\n",
			sum.PerNode[0].Name, sum.Recharacterized)
		printTrajectory(out, sum.PerNode[0].Epochs, sum.PerNode[0].FinalAgeShiftMV)
	}
	fp := sha256.Sum256([]byte(sum.Fingerprint()))
	fmt.Fprintf(out, "\nfingerprint sha256:%s\n", hex.EncodeToString(fp[:]))
	fmt.Fprintln(out, "(same scenario + same seed => same fingerprint, at any -workers)")
	return nil
}

// campaignOpts bundles the -campaign flag set for runCampaignCLI.
type campaignOpts struct {
	spec                           string
	nodesOverride, windowsOverride int
	seed                           uint64
	seedCount                      int
	workers, parallel              int
	charactDir, reportPath         string
	// storeDir, when set, routes the run through the campaignd engine
	// against a persistent result store: cells persist as they finish,
	// interruption leaves a resumable manifest, identical cells are
	// served from the store.
	storeDir string
}

// buildCampaign assembles the requested scenario×seed grid.
func buildCampaign(o campaignOpts) (scenario.Campaign, error) {
	if o.seedCount <= 0 {
		return scenario.Campaign{}, fmt.Errorf("-seeds must be positive")
	}
	var camp scenario.Campaign
	if o.spec == "smoke" {
		camp = scenario.SmokeCampaign(o.nodesOverride)
		if o.windowsOverride > 0 {
			for i, s := range camp.Scenarios {
				camp.Scenarios[i] = s.Scale(0, o.windowsOverride)
			}
		}
	} else {
		names := scenario.Names()
		if o.spec != "all" {
			names = strings.Split(o.spec, ",")
		}
		for _, name := range names {
			s, err := scenario.ByName(strings.TrimSpace(name))
			if err != nil {
				return scenario.Campaign{}, err
			}
			if o.nodesOverride > 0 || o.windowsOverride > 0 {
				s = s.Scale(o.nodesOverride, o.windowsOverride)
			}
			camp.Scenarios = append(camp.Scenarios, s)
		}
	}
	camp.Seeds = nil // -seed/-seeds own the grid's seed axis, even for smoke
	for i := 0; i < o.seedCount; i++ {
		camp.Seeds = append(camp.Seeds, o.seed+uint64(i))
	}
	camp.FleetWorkers = o.workers
	camp.Parallel = o.parallel
	camp.CharactDir = o.charactDir
	return camp, nil
}

// runCampaignCLI runs the campaign and prints the comparative table.
// Cancellation (SIGINT/SIGTERM via ctx) lands at cell boundaries: the
// partial table, the partial campaign fingerprint, and — with a store
// attached — the store's state are emitted before the error returns,
// so an interrupted run is a resumable artifact, not a lost one.
func runCampaignCLI(ctx context.Context, out io.Writer, o campaignOpts) error {
	camp, err := buildCampaign(o)
	if err != nil {
		return err
	}
	camp.Context = ctx

	fmt.Fprintf(out, "== campaign: %d scenarios x %d seeds (%d cells, %d-way parallel) ==\n",
		len(camp.Scenarios), len(camp.Seeds), len(camp.Scenarios)*len(camp.Seeds), camp.EffectiveParallel())
	start := time.Now()

	var rep scenario.Report
	var st *resultstore.Store
	var runID string
	if o.storeDir != "" {
		st, err = resultstore.Open(o.storeDir)
		if err != nil {
			return err
		}
		srv := campaignd.New(campaignd.Options{Store: st, Pool: camp.EffectiveParallel(), FleetWorkers: o.workers})
		defer srv.Close()
		if ctx.Err() != nil {
			// Already canceled before launch (or a signal raced us):
			// shut the engine down synchronously so every cell lands
			// canceled instead of racing the watcher goroutine.
			srv.Shutdown()
		}
		watch := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				srv.Shutdown()
			case <-watch:
			}
		}()
		defer close(watch)
		runID, rep, err = srv.Submit(camp.Scenarios, camp.Seeds, o.workers, o.parallel, nil)
	} else {
		rep, err = scenario.RunCampaign(camp)
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}

	fmt.Fprintf(out, "%-16s %5s %7s %9s %8s %7s %6s %5s %6s %5s %6s %10s  %s\n",
		"SCENARIO", "RUNS", "AVAIL", "KWH", "SAVED_WH", "TEMP_C", "CRASH", "MIGR", "SLA", "RECH", "AGE_MV", "SCHED/REJ", "FINGERPRINT")
	for _, sr := range rep.Scenarios {
		fmt.Fprintf(out, "%-16s %5d %7.4f %9.3f %8.2f %7.1f %6d %5d %6d %5d %6.1f %6d/%-3d  %.12s\n",
			sr.Scenario, sr.Runs, sr.MeanAvailability, sr.EnergyKWh, sr.EnergySavedWh,
			sr.MeanCPUTempC, sr.Crashes, sr.Migrations, sr.SLAViolations, sr.Recharacterized,
			sr.MeanFinalAgeShiftMV, sr.Scheduled, sr.Rejected, sr.FingerprintSHA256)
	}
	if interrupted {
		total := len(camp.Scenarios) * len(camp.Seeds)
		fmt.Fprintf(out, "\nINTERRUPTED: %d of %d cells complete (%d canceled at cell boundaries; completed cells are whole)\n",
			total-rep.CanceledCells, total, rep.CanceledCells)
		fmt.Fprintf(out, "partial campaign fingerprint sha256:%s\n", rep.FingerprintSHA256)
	} else {
		fmt.Fprintf(out, "\ncampaign fingerprint sha256:%s  (%v wall-clock)\n",
			rep.FingerprintSHA256, time.Since(start).Round(time.Millisecond))
	}
	hits, misses := rep.CharactCacheHits, rep.CharactCacheMisses
	reuse := 1.0
	if work := misses + rep.CharactDiskHits; work > 0 {
		reuse = float64(hits+work) / float64(work)
	}
	fmt.Fprintf(out, "snapshot cache: %d hits / %d misses across %d-way parallel cells (%.1fx characterization reuse)\n",
		hits, misses, rep.EffectiveParallel, reuse)
	if rep.CharactCompiled > 0 {
		fmt.Fprintf(out, "snapshot cache: %d snapshots taken; every hit stamped from a snapshot instead of re-characterized\n",
			rep.CharactCompiled)
	}
	if rep.CharactCoalesced > 0 {
		fmt.Fprintf(out, "snapshot cache: %d concurrent misses coalesced onto in-flight characterizations\n",
			rep.CharactCoalesced)
	}
	if o.charactDir != "" {
		fmt.Fprintf(out, "snapshot cache dir %s: %d entries served from disk (characterizations shared across processes)\n",
			o.charactDir, rep.CharactDiskHits)
		if rep.CharactDiskErr != "" {
			fmt.Fprintf(out, "WARNING: snapshot cache dir is not accumulating: %s\n", rep.CharactDiskErr)
		}
	}
	if st != nil {
		stats := st.Stats()
		cells, cerr := st.CellCount()
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(out, "result store %s: %d cells on disk (this run: %d served from store, %d executed, %d quarantined)\n",
			o.storeDir, cells, stats.Hits, stats.Puts, stats.Quarantined)
		if interrupted {
			fmt.Fprintf(out, "resume: rerun the same command; run %s stays 'running' in the store and completed cells will not re-execute\n", runID)
		} else {
			fmt.Fprintf(out, "run %s complete in store (compare stored runs: uniserver diff -store %s RUN_A RUN_B)\n", runID, o.storeDir)
		}
	} else if interrupted {
		fmt.Fprintf(out, "note: without -result-store the completed cells are not persisted; rerunning restarts from scratch\n")
	}
	if interrupted {
		return err
	}
	if o.reportPath != "" {
		f, err := os.Create(o.reportPath)
		if err != nil {
			return fmt.Errorf("report file: %w", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing report: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing report: %w", err)
		}
		fmt.Fprintf(out, "report written to %s\n", o.reportPath)
	}
	return nil
}

// runServe starts the HTTP campaign service: a campaignd.Server over a
// persistent result store, resuming any runs a previous life left
// incomplete. SIGINT/SIGTERM stop it cleanly at cell boundaries —
// interrupted runs resume on the next start.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	storeDir := fs.String("store", "", "persistent result store directory (required; created and version-stamped on first use)")
	pool := fs.Int("pool", 0, "concurrent campaign cells across all submissions (0 = GOMAXPROCS)")
	fleetWorkers := fs.Int("workers", 0, "default per-cell fleet worker goroutines for submissions that set none (0 = 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("serve: -store is required (the persistent result store)")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	st, err := resultstore.Open(*storeDir)
	if err != nil {
		return err
	}
	srv := campaignd.New(campaignd.Options{Store: st, Pool: *pool, FleetWorkers: *fleetWorkers})
	resumed, err := srv.ResumeIncomplete()
	if err != nil {
		return err
	}
	if resumed > 0 {
		fmt.Printf("resuming %d incomplete run(s) from %s (completed cells served from the store)\n", resumed, *storeDir)
	}

	// A client gets 10 s to send its request headers, so idle or
	// trickling connections cannot pin the server. Bodies and streamed
	// responses get no deadline: a campaign's NDJSON stream lasts as
	// long as its run.
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Stop the engine first: campaigns halt at cell boundaries and
		// their NDJSON streams finish, then the listener drains.
		srv.Shutdown()
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		httpSrv.Shutdown(sctx)
	}()
	fmt.Printf("uniserver campaign service listening on %s (store %s, pool %d)\n", *addr, *storeDir, *pool)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.Close()
	fmt.Println("serve: shut down; incomplete runs resume on next start")
	return nil
}

// runDiff compares two stored runs and prints the per-scenario report:
// availability and energy deltas, fingerprint match/mismatch, and
// regression flags.
func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	storeDir := fs.String("store", "", "result store directory holding both runs (required)")
	jsonPath := fs.String("json", "", "also write the machine-readable diff report to this file")
	failOnRegression := fs.Bool("fail-on-regression", false, "exit non-zero when run B regresses run A (availability, energy, new failures, missing scenarios)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("diff: -store is required")
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants two run IDs: uniserver diff -store DIR RUN_A RUN_B (IDs are printed by -campaign -result-store and listed at /api/v1/runs)")
	}
	st, err := resultstore.Open(*storeDir)
	if err != nil {
		return err
	}
	a, ok := st.GetRun(fs.Arg(0))
	if !ok {
		return fmt.Errorf("diff: no run %q in %s", fs.Arg(0), *storeDir)
	}
	b, ok := st.GetRun(fs.Arg(1))
	if !ok {
		return fmt.Errorf("diff: no run %q in %s", fs.Arg(1), *storeDir)
	}
	d, err := resultstore.DiffRuns(a, b)
	if err != nil {
		return err
	}
	if err := d.WriteText(out); err != nil {
		return err
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("diff report file: %w", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			f.Close()
			return fmt.Errorf("writing diff report: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing diff report: %w", err)
		}
		fmt.Fprintf(out, "diff report written to %s\n", *jsonPath)
	}
	if *failOnRegression && len(d.Regressions) > 0 {
		return fmt.Errorf("diff: %d regression(s): %s", len(d.Regressions), strings.Join(d.Regressions, "; "))
	}
	return nil
}

// runSingleNode is the original one-node narration.
func runSingleNode(out io.Writer, seed uint64, m vfr.Mode, risk float64, windows int, closedLoop bool, plan *core.LifetimePlan, healthOut *os.File) (err error) {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Mem = dram.Config{Channels: 4, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45}
	if healthOut != nil {
		opts.HealthLogOut = healthOut
	}

	eco, err := core.New(opts)
	if err != nil {
		return err
	}
	// The HealthLog keeps its first write error and stops writing; a
	// run whose log is incomplete fails, whichever path it ends on.
	defer func() {
		if err == nil {
			err = eco.Health.Err()
		}
	}()

	fmt.Fprintf(out, "== UniServer node (%s, %d cores, seed %d) ==\n",
		eco.Machine.Spec.Model, eco.Machine.Spec.Cores, seed)

	fmt.Fprintln(out, "\n[1/3] pre-deployment characterization")
	rep, err := eco.PreDeployment()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  stress sweeps run:        %d (ECC events observed: %d)\n",
		rep.Margins.SweepsRun, rep.Margins.ECCEvents)
	for _, comp := range eco.Table().Components() {
		mg, _ := eco.Table().Lookup(comp)
		if comp == "dram/relaxed" {
			fmt.Fprintf(out, "  %-20s safe refresh %v (zero errors up to %v)\n",
				comp, mg.Safe.Refresh, rep.Margins.ZeroErrorRefresh)
			continue
		}
		fmt.Fprintf(out, "  %-20s safe %s (%.1f%% below nominal)\n",
			comp, mg.Safe, mg.UndervoltHeadroomPct())
	}
	fmt.Fprintf(out, "  fault injections:         %d SDCs, %d objects protected\n",
		rep.FaultsInjected, rep.ProtectedObjects)
	fmt.Fprintf(out, "  predictor accuracy:       %.1f%% on %d samples\n",
		rep.PredictorAcc*100, rep.PredictorSamples)

	wl := workload.WebFrontend()
	if plan != nil {
		fmt.Fprintf(out, "\n[2/3] supervised lifetime: %d epochs x %d windows, %d-day gaps, %s mode\n",
			plan.Epochs(), windows, plan.Gaps[0].Days, m)
		sum, err := eco.RunLifetime(m, risk, wl, *plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  windows at EOP / nominal:  %d / %d\n", sum.WindowsAtEOP, sum.WindowsAtNominal)
		fmt.Fprintf(out, "  crashes (all recovered):   %d\n", sum.Crashes)
		fmt.Fprintf(out, "  re-characterizations:      %d\n", sum.Recharacterized)
		fmt.Fprintf(out, "  energy saved:              %.2f Wh\n", sum.EnergySavedWh)
		fmt.Fprintln(out, "  margin trajectory:")
		printTrajectory(out, sum.Epochs, sum.FinalAgeShiftMV)
		fmt.Fprintln(out, "\n[3/3] done: the EOP table tracked the aging margins across the lifetime")
		return nil
	}
	if closedLoop {
		fmt.Fprintf(out, "\n[2/3] supervised closed-loop deployment: %s mode, %d windows\n", m, windows)
		sum, err := eco.RunDeployment(m, risk, wl, windows)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  windows at EOP / nominal:  %d / %d\n", sum.WindowsAtEOP, sum.WindowsAtNominal)
		fmt.Fprintf(out, "  crashes (all recovered):   %d\n", sum.Crashes)
		fmt.Fprintf(out, "  re-characterizations:      %d\n", sum.Recharacterized)
		fmt.Fprintf(out, "  energy saved:              %.2f Wh\n", sum.EnergySavedWh)
		fmt.Fprintf(out, "  aging drift:               +%.1f mV (final safe point %d mV)\n",
			sum.FinalAgeShiftMV, sum.FinalSafeVoltageMV)
		fmt.Fprintln(out, "\n[3/3] done: closed loop kept the node at extended operating points")
		return nil
	}

	fmt.Fprintf(out, "\n[2/3] entering %s mode (risk target %.3g)\n", m, risk)
	point, err := eco.EnterMode(m, risk, wl)
	if err != nil {
		return err
	}
	pw := eco.Power(wl.CPUActivity)
	fmt.Fprintf(out, "  operating point:          %s\n", point)
	fmt.Fprintf(out, "  CPU power:                %.2fW vs %.2fW nominal (%.1f%% saved)\n",
		pw.CurrentW, pw.NominalW, pw.SavingsPct)
	fmt.Fprintf(out, "  DRAM refresh power saved: %.1f%%\n", pw.RefreshSavingsPct)

	fmt.Fprintf(out, "\n[3/3] runtime: %d observation windows of %s\n", windows, wl.Name)
	crashes, correctable, dramHits := 0, 0, 0
	for i := 0; i < windows; i++ {
		wrep := eco.RuntimeWindow(wl)
		if wrep.Crashed {
			crashes++
		}
		correctable += wrep.Correctable
		dramHits += wrep.DRAMCorrected
	}
	stats := eco.Hypervisor.Stats()
	fmt.Fprintf(out, "  crashes:                  %d\n", crashes)
	fmt.Fprintf(out, "  cache ECC corrections:    %d (masked by hypervisor)\n", correctable)
	fmt.Fprintf(out, "  DRAM retention hits:      %d (corrected by SECDED)\n", dramHits)
	fmt.Fprintf(out, "  hypervisor masked:        %d events, %d cores isolated\n",
		stats.ErrorsMasked, stats.CoresIsolated)
	fmt.Fprintf(out, "  pending stress requests:  %d\n", eco.Stress.PendingCount())
	fmt.Fprintln(out, "\ndone: node ran at extended operating points with non-disruptive operation")
	return nil
}
