package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"uniserver/internal/campaignd"
	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/fleet"
	"uniserver/internal/openstack"
	"uniserver/internal/resultstore"
	"uniserver/internal/rng"
	"uniserver/internal/scenario"
	"uniserver/internal/telemetry"
	"uniserver/internal/workload"
)

// probeInput is what the probes take from the workload they follow.
type probeInput struct {
	// cfg is the workload's first cell, compiled without hooks: node 0's
	// spec and characterization seed, the fleet shape and arrivals.
	cfg fleet.Config
	// sample and sc are one of the workload's results and its scenario,
	// written to and read from a scratch result store.
	sample scenario.Result
	sc     scenario.Scenario
	// preset is submitted to a scratch campaignd server; empty when the
	// workload measured campaignd itself.
	preset string
	j      job
}

// timed runs fn reps times, one span each, and returns the median
// seconds.
func timed(tr *tracer, parent *span, name string, reps int, fn func() error) (float64, error) {
	var d []float64
	for r := 0; r < reps; r++ {
		s := tr.open(parent, name)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d = append(d, time.Since(start).Seconds())
		tr.close(s)
	}
	return median(d), nil
}

// looped runs fn n times under one span and returns the mean seconds
// per call.
func looped(tr *tracer, parent *span, name string, n int, fn func(i int) error) (float64, error) {
	s := tr.open(parent, name)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	el := time.Since(start)
	tr.close(s)
	return el.Seconds() / float64(n), nil
}

// runProbes times each layer's public entry points in isolation, on
// this goroutine, after the traced workload, with the workload's own
// node spec and seeds. The returned notes name metrics that came from a
// probe where the workload itself never ran the timed path.
func runProbes(tr *tracer, in probeInput, l map[string]float64) ([]string, error) {
	root := tr.open(nil, "probes")
	defer tr.close(root)
	sz := in.j.sizes()
	reps := 3
	if in.j.Smoke {
		reps = 1
	}
	loops := func(full int) int { return max(full/sz.probeScale, 2) }

	cfg := in.cfg
	spec := cfg.BaseSpec()
	if cfg.Node != nil {
		spec = cfg.Node(0)
	}
	seed := fleet.NodeSeed(cfg.Seed, 0)
	if cfg.Archetypes {
		seed = fleet.ArchetypeSeed(cfg.Seed, fleet.ArchetypeBin(spec))
	}
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Mem = spec.Mem
	opts.AmbientCPUC, opts.AmbientDIMMC = spec.AmbientCPUC, spec.AmbientDIMMC
	if spec.Part.Cores != 0 {
		opts.SetPart(spec.Part)
	}

	var eco *core.Ecosystem
	v, err := timed(tr, root, "core.characterize", reps, func() error {
		e, err := core.New(opts)
		if err != nil {
			return err
		}
		if _, err := e.PreDeployment(); err != nil {
			return err
		}
		eco = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	l["core.characterize_ms"] = v * 1e3

	var snap *core.Snapshot
	if v, err = timed(tr, root, "core.snapshot", reps, func() (err error) {
		snap, err = eco.Snapshot()
		return err
	}); err != nil {
		return nil, err
	}
	l["core.snapshot_ms"] = v * 1e3
	var tmpl *core.RestoreTemplate
	v, _ = timed(tr, root, "core.compile", reps, func() error {
		tmpl = snap.Compile()
		return nil
	})
	l["core.compile_ms"] = v * 1e3

	var buf bytes.Buffer
	if v, err = timed(tr, root, "core.snapshot_save", reps, func() error {
		buf.Reset()
		return snap.Save(&buf)
	}); err != nil {
		return nil, err
	}
	l["core.snapshot_save_ms"] = v * 1e3
	l["core.snapshot_bytes"] = float64(buf.Len())
	if v, err = timed(tr, root, "core.snapshot_load", reps, func() error {
		_, err := core.LoadSnapshot(bytes.NewReader(buf.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}
	l["core.snapshot_load_ms"] = v * 1e3

	// The stamp is timed warm, as a fleet worker stamps every node after
	// its first: one cold stamp builds the arena's graph.
	arena := core.NewRestoreArena()
	ropts := core.RestoreOptions{AmbientCPUC: spec.AmbientCPUC, AmbientDIMMC: spec.AmbientDIMMC}
	node, err := tmpl.RestoreInto(arena, ropts)
	if err != nil {
		return nil, err
	}
	n := loops(50)
	var before, after runtime.MemStats
	s := tr.open(root, "core.stamp")
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if node, err = tmpl.RestoreInto(arena, ropts); err != nil {
			return nil, err
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	tr.close(s)
	l["core.stamp_us"] = el.Seconds() / float64(n) * 1e6
	l["core.stamp_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	dep, err := node.StartDeployment(spec.Mode, spec.RiskTarget, spec.Workload)
	if err != nil {
		return nil, err
	}
	if v, err = looped(tr, root, "core.step", loops(500), func(int) error {
		if _, err := dep.Step(); err != nil {
			return err
		}
		_, err := node.PredictedFailProb()
		return err
	}); err != nil {
		return nil, err
	}
	l["core.step_us"] = v * 1e6

	// The window kernels, as RuntimeWindow calls them.
	wl := dep.Workload()
	bench := cpu.Benchmark{Name: wl.Name, DroopIntensity: wl.DroopIntensity, CacheStress: 0.5, Activity: wl.CPUActivity}
	point := node.Hypervisor.Point()
	cores := node.Machine.Spec.Cores
	v, _ = looped(tr, root, "cpu.run_at", loops(20000), func(i int) error {
		node.Machine.RunAt(i%cores, bench, point.VoltageMV)
		return nil
	})
	l["cpu.run_at_ns"] = v * 1e9
	src := rng.New(seed).SplitLabeled("bench/dram")
	hits := make(map[string]int)
	alloc := node.Hypervisor.Allocator()
	v, _ = looped(tr, root, "dram.simulate_window", loops(2000), func(int) error {
		clear(hits)
		alloc.SimulateWindowInto(src, hits)
		return nil
	})
	l["dram.simulate_window_us"] = v * 1e6
	vec := telemetry.InfoVector{
		Component: "bench",
		Point:     point,
		Sensors: []telemetry.Reading{
			{Kind: telemetry.SensorVoltage, Value: float64(point.VoltageMV)},
			{Kind: telemetry.SensorPower, Value: 10},
			{Kind: telemetry.SensorTemperature, Value: 50},
		},
	}
	v, _ = looped(tr, root, "healthlog.record", loops(20000), func(int) error {
		node.Health.Record(vec)
		return nil
	})
	l["healthlog.record_ns"] = v * 1e9

	// An epoch boundary as the lifetime engine crosses it: a 30-day
	// fast-forward, then the re-characterization cadence check.
	var ffs, gaps []float64
	for r := 0; r < reps; r++ {
		g := tr.open(root, "fleet.epoch_gap")
		start := time.Now()
		ff := tr.open(g, "core.fast_forward")
		if err := dep.FastForward(core.Gap{Days: 30, Duty: 0.7}); err != nil {
			return nil, err
		}
		tr.close(ff)
		ffs = append(ffs, time.Since(start).Seconds())
		mr := tr.open(g, "core.maybe_recharacterize")
		if _, err := dep.MaybeRecharacterize(); err != nil {
			return nil, err
		}
		tr.close(mr)
		tr.close(g)
		gaps = append(gaps, time.Since(start).Seconds())
	}
	l["core.fast_forward_ms"] = median(ffs) * 1e3
	var notes []string
	if len(tr.fleet.gapMS) == 0 {
		l["fleet.epoch_gap_ms"] = median(gaps) * 1e3
		l["fleet.epoch_gap_s"] = 0
		for _, g := range gaps {
			l["fleet.epoch_gap_s"] += g
		}
		notes = append(notes, fmt.Sprintf("fleet.epoch_gap_* come from %d probe gaps: the workload crosses no epoch boundary", len(gaps)))
	}
	if v, err = timed(tr, root, "core.recharacterize", reps, func() error {
		_, err := node.Recharacterize()
		return err
	}); err != nil {
		return nil, err
	}
	l["core.recharacterize_ms"] = v * 1e3

	if err := probeOpenstack(tr, root, cfg, spec, l); err != nil {
		return nil, err
	}
	if err := probeStore(tr, root, in, loops(20), l); err != nil {
		return nil, err
	}
	if in.preset != "" {
		if err := probeService(tr, root, in, l); err != nil {
			return nil, err
		}
		notes = append(notes, "campaignd.* come from one probe submission of "+in.preset+" (one stored cell, one executed)")
	}
	return notes, nil
}

// probeOpenstack replays the cloud layer of the workload's first cell
// on its own: the same node count, policy and arrival stream, every
// node healthy, one StreamCursor.Advance and one Manager.StepFleet per
// window.
func probeOpenstack(tr *tracer, parent *span, cfg fleet.Config, spec fleet.NodeSpec, l map[string]float64) error {
	s := tr.open(parent, "openstack.replay")
	defer tr.close(s)
	cores := spec.Part.Cores
	if cores == 0 {
		cores = core.DefaultOptions().Part.Cores
	}
	nodes := make([]*openstack.Node, cfg.Nodes)
	health := make([]openstack.NodeHealth, cfg.Nodes)
	for i := range nodes {
		name := fmt.Sprintf("uniserver-%02d", i)
		nodes[i] = openstack.NewNode(name, cores, spec.MemBytes, 0.001)
		health[i] = openstack.NodeHealth{Name: name, FailProb: 0.001}
	}
	mgr, err := openstack.NewManager(cfg.Policy, nodes...)
	if err != nil {
		return err
	}
	arrivals := cfg.Arrivals
	if arrivals == nil {
		if arrivals, err = workload.Stream(cfg.StreamDefaults(), rng.New(cfg.Seed).SplitLabeled("fleet/arrivals")); err != nil {
			return err
		}
	}
	cursor := openstack.NewStreamCursor(arrivals)
	var adv, step time.Duration
	for w := 0; w < cfg.Windows; w++ {
		now := time.Duration(w) * time.Minute
		a := time.Now()
		cursor.Advance(mgr, now)
		b := time.Now()
		if _, err := mgr.StepFleet(health, time.Minute, now, 15*time.Minute); err != nil {
			return err
		}
		adv, step = adv+b.Sub(a), step+time.Since(b)
	}
	l["openstack.advance_ms"] = ms(adv) / float64(cfg.Windows)
	l["openstack.step_fleet_ms"] = ms(step) / float64(cfg.Windows)
	return nil
}

// probeStore writes, reads and indexes one of the workload's results
// in a scratch result store.
func probeStore(tr *tracer, parent *span, in probeInput, n int, l map[string]float64) error {
	dir, err := os.MkdirTemp(in.j.TmpDir, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	key, canonical, err := resultstore.CellKey(in.sc, in.sample.Seed)
	if err != nil {
		return err
	}
	rec := resultstore.CellRecord{
		Key: key, Scenario: in.sc.Name, Seed: in.sample.Seed, Request: canonical,
		Fingerprint: in.sample.Fingerprint, FingerprintSHA256: sha256Hex(in.sample.Fingerprint), Summary: in.sample.Summary,
	}
	v, err := looped(tr, parent, "resultstore.put_cell", n, func(int) error { return st.PutCell(rec) })
	if err != nil {
		return err
	}
	l["resultstore.put_cell_ms"] = v * 1e3
	if v, err = looped(tr, parent, "resultstore.get_cell", n, func(int) error {
		if _, ok := st.GetCell(key); !ok {
			return fmt.Errorf("cell %s not served back", key)
		}
		return nil
	}); err != nil {
		return err
	}
	l["resultstore.get_cell_ms"] = v * 1e3
	m := resultstore.RunManifest{
		ID: resultstore.RunID([]string{key}), Status: resultstore.RunComplete,
		Scenarios: []scenario.Scenario{in.sc}, Seeds: []uint64{in.sample.Seed}, CellKeys: []string{key},
		FingerprintSHA256: rec.FingerprintSHA256,
	}
	if v, err = looped(tr, parent, "resultstore.put_run", n, func(int) error { return st.PutRun(m) }); err != nil {
		return err
	}
	l["resultstore.put_run_ms"] = v * 1e3
	stats := st.Stats()
	l["resultstore.hits"] = float64(stats.Hits)
	l["resultstore.puts"] = float64(stats.Puts)
	l["resultstore.quarantined"] = float64(stats.Quarantined)
	return nil
}

// probeService submits the workload's first preset, scaled to two
// nodes × eight windows, to a scratch campaignd server in the shape of
// a service submission: one cell stored beforehand, one executed.
func probeService(tr *tracer, parent *span, in probeInput, l map[string]float64) error {
	const nodes, windows = 2, 8
	base, err := scenario.ByName(in.preset)
	if err != nil {
		return err
	}
	svc, err := startService(in.j.TmpDir)
	if err != nil {
		return err
	}
	defer svc.stop()
	seed := in.cfg.Seed
	if _, err := svc.storeCells(base.Scale(nodes, windows), []uint64{seed}); err != nil {
		return err
	}
	sub, err := submit(svc.client, svc.url, campaignd.SubmitRequest{
		Presets: []string{in.preset}, Seeds: []uint64{seed, seed + 1}, Nodes: nodes, Windows: windows,
	}, tr, parent)
	if err != nil {
		return err
	}
	l["campaignd.accept_ms"] = ms(sub.accept)
	l["campaignd.first_event_ms"] = ms(sub.firstEvent)
	l["campaignd.cached_cells"] = float64(sub.cached)
	l["campaignd.executed_cells"] = float64(sub.executed)
	return nil
}
