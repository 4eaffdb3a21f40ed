// Command uniserver-bench is the repository's end-to-end benchmark. It
// runs four workloads — population, campaign, lifetime and service —
// each run in a fresh child process that repeats the workload's round
// for a fixed time, prints every end-to-end metric by name with its
// unit, checks every simulated output against its fingerprint, and
// with tracing on adds one traced child per workload that reports the
// per-layer metrics. Every end-to-end time it reports is scaled to a
// reference host speed by a calibration timed between rounds
// (calib.go).
// BENCHMARK.json at the repository root names the metrics, their units
// and their bounds; README.md explains them. Run it with bench/run.sh
// from the repository root.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	// childEnv carries a child's job; its presence makes the process a
	// child.
	childEnv = "UNISERVER_BENCH_CHILD"
	// childProcs is every child's GOMAXPROCS.
	childProcs = 2
	// minSetupSamples is how many set-ups a workload measures at least;
	// children beyond the timed ones exit once they have calibrated.
	minSetupSamples = 3
	// preCalibrations are timed right after set-up, before the first
	// round; a set-up-only child's set-up is scaled by them alone.
	preCalibrations = 5
	readyLine       = "ready"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain sets one workload up — building its inputs and running
// the warm-up round — reports ready on standard output, calibrates,
// runs the timed rounds with a calibration after each, and prints its
// result as one JSON line. A set-up-only child stops after calibrating.
func childMain(spec string) int {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 2
	}
	p, err := setup(j)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %s set-up: %v\n", j.Workload, err)
		return 1
	}
	defer p.close()
	var res iterResult
	warm := p.round(nil, 0)
	res.Fingerprint = warm.fingerprint
	res.add(warm)
	fmt.Println(readyLine)

	cal := newCalibrator()
	runtime.GC()
	for i := 0; i < preCalibrations; i++ {
		res.PreCalMS = append(res.PreCalMS, cal.run())
	}
	if !j.SetupOnly && res.Err == "" {
		var tr *tracer
		if j.TraceOut != "" {
			tr = newTracer()
		}
		start := time.Now()
		for k := 1; ; k++ {
			rs := time.Now()
			r := p.round(tr, k)
			wall := time.Since(rs)
			// Collecting the round's garbage before calibrating keeps the
			// collector off the calibration and starts every round from
			// the same heap, as a fresh process would.
			runtime.GC()
			res.Rounds = append(res.Rounds, roundRecord{WallMS: ms(wall), OpMS: r.opMS, NodeWindows: r.nodeWindows, CalMS: cal.after(ms(wall))})
			res.add(r)
			if res.Err != "" || (tr != nil && k >= p.tracedRounds) ||
				(tr == nil && (time.Since(start)+wall).Seconds() > j.Seconds) {
				break
			}
		}
		if tr != nil && res.Err == "" {
			p.layers(tr, &res)
			if err := tr.write(j.TraceOut, j.Workload, j.Seed); err != nil {
				res.fail(fmt.Errorf("writing trace: %w", err))
			}
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 1
	}
	return 0
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot locates the repository root: the current directory, or its
// parent when run from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found; run from the repository root")
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	runs     int
	trace    int
	out      string
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uniserver-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 20, "time each run's rounds for this many seconds (0: one round)")
	fs.IntVar(&o.runs, "runs", 1, "timed runs per workload, each a fresh child process")
	fs.IntVar(&o.trace, "trace", 1, "1: add one traced run per workload and report the per-layer metrics; 0: end-to-end metrics only")
	fs.StringVar(&o.out, "out", "", "directory for record.json and the trace files (default .bench_build/out)")
	compare := fs.Bool("compare", false, "compare two records: -compare A.json B.json")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny workload sizes, for the smoke test; fingerprints are not checked against the records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		return compareRecords(spec, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || o.runs < 1 || o.seconds < 0 || (o.trace != 0 && o.trace != 1) {
		fs.Usage()
		return 2
	}
	names := workloadNames
	if o.workload != "all" {
		if !slices.Contains(workloadNames, o.workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (known: %s)\n", o.workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "out")
	}
	// Children keep their scratch stores under tmp; a child killed with
	// its parent leaves one behind, so every invocation starts empty.
	tmp := filepath.Join(o.out, "tmp")
	if err := os.RemoveAll(tmp); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.out, err = filepath.Abs(o.out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	rec := record{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS: childProcs,
		Env:        fmt.Sprintf("%s/%s %s, %d CPUs", runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU()),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Smoke:      o.smoke,
	}
	for _, name := range names {
		wr := measure(exe, name, o, stderr)
		if err := wr.derive(spec, o.seed == 1 && !o.smoke); err != nil {
			wr.Problems = append(wr.Problems, err.Error())
			wr.Correct = false
		}
		printWorkload(stdout, spec, wr, o)
		rec.Workloads = append(rec.Workloads, wr)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, "record.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: writing record:", err)
	}

	// The last line is the machine-readable result: end-to-end metrics
	// untraced, per-layer metrics traced. With several workloads each
	// metric name is prefixed with its workload's.
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]reportedMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]reportedMetric{}}
	metrics := spec.EndToEnd
	if o.trace == 1 {
		metrics = spec.PerLayer
	}
	for _, wr := range rec.Workloads {
		result.Correct = result.Correct && wr.Correct
		result.Attempted += wr.Attempted
		result.Failed += wr.Failed
		for _, m := range metrics {
			v, ok := wr.Value[m.Name]
			if o.trace == 1 {
				v, ok = wr.PerLayer[m.Name]
			}
			if !ok {
				continue
			}
			key := m.Name
			if len(names) > 1 {
				key = wr.Name + "." + m.Name
			}
			result.Metrics[key] = reportedMetric{Value: v, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one invocation's results, written to <out>/record.json;
// -compare reads two of them.
type record struct {
	Date       string           `json:"date"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Env        string           `json:"env"`
	Seed       uint64           `json:"seed"`
	Seconds    int              `json:"seconds"`
	Smoke      bool             `json:"smoke,omitempty"`
	Workloads  []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name              string   `json:"name"`
	Correct           bool     `json:"correct"`
	Attempted         int      `json:"attempted"`
	Failed            int      `json:"failed"`
	Problems          []string `json:"problems,omitempty"`
	Fingerprint       string   `json:"fingerprint"`
	TracedFingerprint string   `json:"traced_fingerprint,omitempty"`
	// Runs holds each timed run's end-to-end values, with its raw host
	// median operation time and calibration beside them; SetupS every
	// set-up measured; EndToEnd their distribution; Value what the
	// benchmark reports: the median over runs, and over set-ups for
	// setup_s.
	Runs     []map[string]float64 `json:"runs"`
	SetupS   []float64            `json:"setup_s_samples"`
	EndToEnd map[string]dist      `json:"end_to_end"`
	Value    map[string]float64   `json:"value"`
	Rounds   int                  `json:"rounds"`
	OpCount  int                  `json:"op_count"`
	PerLayer map[string]float64   `json:"per_layer,omitempty"`
	Notes    []string             `json:"notes,omitempty"`
	// Trace names the trace file, in the record's directory.
	Trace string `json:"trace_file,omitempty"`

	iters  []childOutcome
	setups []childOutcome
	traced *childOutcome
}

// iterResult is what one child reports.
type iterResult struct {
	// PreCalMS are the calibrations right after set-up; each round is
	// followed by more.
	PreCalMS []float64     `json:"pre_cal_ms"`
	Rounds   []roundRecord `json:"rounds"`
	// Ops counts operations — fleet runs, cells or submissions, the
	// warm-up round's included — and Failed those that returned an error
	// or a wrong output.
	Ops    int `json:"ops"`
	Failed int `json:"failed"`
	// Fingerprint is the warm-up round's; every later round of the same
	// input must match it.
	Fingerprint string             `json:"fingerprint"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
	Err         string             `json:"error,omitempty"`
}

// roundRecord is one timed round in host time, with the calibrations
// that followed it.
type roundRecord struct {
	WallMS      float64   `json:"wall_ms"`
	OpMS        []float64 `json:"op_ms"`
	NodeWindows int64     `json:"node_windows"`
	CalMS       []float64 `json:"cal_ms"`
}

func (r *iterResult) fail(err error) {
	if err == nil {
		return
	}
	if r.Err == "" {
		r.Err = err.Error()
	}
	if r.Failed == 0 {
		r.Failed = max(r.Ops, 1)
	}
}

// add counts a round's operations and checks its fingerprint against
// the warm-up's.
func (r *iterResult) add(rd round) {
	r.Ops += rd.ops
	r.Failed += rd.failed
	if rd.err != nil && r.Err == "" {
		r.Err = rd.err.Error()
	}
	if rd.err == nil && rd.fingerprint != "" && rd.fingerprint != r.Fingerprint {
		r.Failed += rd.ops - rd.failed
		if r.Err == "" {
			r.Err = fmt.Sprintf("round fingerprint %s differs from the warm-up's %s", rd.fingerprint, r.Fingerprint)
		}
	}
}

// childOutcome is one child process as the parent saw it.
type childOutcome struct {
	res    iterResult
	setupS float64
	rssMiB float64
}

// spawn runs one child and waits for it. Set-up time runs from just
// before the process starts until it reports ready; peak RSS is the
// child's maximum resident set as the kernel accounted it.
func spawn(exe string, j job, stderr io.Writer) (c childOutcome, err error) {
	spec, err := json.Marshal(j)
	if err != nil {
		return c, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		fmt.Sprintf("GOMAXPROCS=%d", childProcs),
		"TMPDIR="+j.TmpDir,
		childEnv+"="+string(spec))
	cmd.Stderr = stderr
	// The child dies with the parent, so a killed benchmark leaves no
	// process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return c, err
	}
	waited := false
	defer func() {
		if !waited {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()
	r := bufio.NewReader(pipe)
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != readyLine {
		return c, fmt.Errorf("%s child did not report ready (%q, %v)", j.Workload, line, err)
	}
	c.setupS = time.Since(start).Seconds()
	if err := json.NewDecoder(r).Decode(&c.res); err != nil {
		return c, fmt.Errorf("%s child result: %w", j.Workload, err)
	}
	_, _ = io.Copy(io.Discard, r)
	waited = true
	if err := cmd.Wait(); err != nil {
		return c, fmt.Errorf("%s child: %w", j.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// measure runs one workload: -runs timed children, set-up-only children
// up to minSetupSamples set-ups, then the traced child.
func measure(exe, name string, o options, stderr io.Writer) workloadRecord {
	wr := workloadRecord{Name: name}
	base := job{Workload: name, Seed: o.seed, Smoke: o.smoke, TmpDir: filepath.Join(o.out, "tmp"), Seconds: float64(o.seconds)}
	child := func(j job) (childOutcome, bool) {
		c, err := spawn(exe, j, stderr)
		if err != nil {
			wr.Problems = append(wr.Problems, err.Error())
			wr.Attempted++
			wr.Failed++
			return c, false
		}
		return c, true
	}
	for r := 0; r < o.runs; r++ {
		c, ok := child(base)
		if !ok {
			return wr
		}
		wr.iters = append(wr.iters, c)
	}
	for len(wr.iters)+len(wr.setups) < minSetupSamples {
		j := base
		j.SetupOnly = true
		c, ok := child(j)
		if !ok {
			return wr
		}
		wr.setups = append(wr.setups, c)
	}
	if o.trace == 1 {
		j := base
		j.TraceOut = filepath.Join(o.out, "trace-"+name+".json")
		c, ok := child(j)
		if !ok {
			return wr
		}
		wr.traced, wr.Trace = &c, filepath.Base(j.TraceOut)
	}
	return wr
}

// runMetrics computes one child's end-to-end values. Its host times —
// set-up and rounds alike — are scaled to the reference host by the
// median of every calibration the child timed. Scaling each round by
// the calibrations around it instead would follow drift within a run,
// but two calibrations are too few to average out the host's
// sub-second jitter.
func runMetrics(c childOutcome) (m map[string]float64, ops []float64) {
	r := c.res
	cals := append([]float64(nil), r.PreCalMS...)
	var raw []float64
	var nodeWindows int64
	var wallMS float64
	for _, rd := range r.Rounds {
		cals = append(cals, rd.CalMS...)
		raw = append(raw, rd.OpMS...)
		nodeWindows += rd.NodeWindows
		wallMS += rd.WallMS
	}
	cal := median(cals)
	scale := refCalibrationMS / cal
	m = map[string]float64{
		"setup_s":             c.setupS * scale,
		"peak_rss_mib":        c.rssMiB,
		"host.calibration_ms": cal,
	}
	if len(raw) == 0 {
		return m, nil
	}
	for _, op := range raw {
		ops = append(ops, op*scale)
	}
	m["op_p50_ms"], m["op_p90_ms"] = median(ops), p90(ops)
	m["node_windows_per_s"] = ratio(float64(nodeWindows), wallMS*scale/1e3)
	m["host.op_p50_ms"] = median(raw)
	return m, ops
}

// derive checks every child's outputs and computes the metrics. Every
// child must succeed and every fingerprint — the set-up-only and traced
// children's included — must agree; at seed 1 it must equal the
// recorded one. A failed check counts the child's operations as failed.
func (wr *workloadRecord) derive(spec benchSpec, checkGolden bool) error {
	all := append(append([]childOutcome(nil), wr.iters...), wr.setups...)
	if wr.traced != nil {
		all = append(all, *wr.traced)
	}
	golden := ""
	if checkGolden {
		golden = goldens[wr.Name]
	}
	for k, c := range all {
		r := c.res
		wr.Attempted += r.Ops
		wr.Failed += r.Failed
		if r.Err != "" {
			wr.Problems = append(wr.Problems, fmt.Sprintf("child %d: %s", k, r.Err))
			continue
		}
		if r.Failed > 0 {
			continue
		}
		switch {
		case wr.Fingerprint == "":
			wr.Fingerprint = r.Fingerprint
		case r.Fingerprint != wr.Fingerprint:
			wr.Problems = append(wr.Problems, fmt.Sprintf("child %d fingerprint %s differs from child 0's %s", k, r.Fingerprint, wr.Fingerprint))
			wr.Failed += r.Ops
			continue
		}
		if golden != "" && r.Fingerprint != golden {
			wr.Problems = append(wr.Problems, fmt.Sprintf("child %d fingerprint %s differs from the seed-1 record %s", k, r.Fingerprint, golden))
			wr.Failed += r.Ops
		}
	}
	wr.Correct = len(wr.Problems) == 0 && wr.Failed == 0 && len(wr.iters) > 0

	for _, c := range wr.iters {
		m, ops := runMetrics(c)
		wr.Runs = append(wr.Runs, m)
		wr.SetupS = append(wr.SetupS, m["setup_s"])
		wr.Rounds += len(c.res.Rounds)
		wr.OpCount += len(ops)
	}
	for _, c := range wr.setups {
		m, _ := runMetrics(c)
		wr.SetupS = append(wr.SetupS, m["setup_s"])
	}
	wr.EndToEnd, wr.Value = map[string]dist{}, map[string]float64{}
	for _, m := range spec.EndToEnd {
		vals := runValues(*wr, m.Name)
		if len(vals) == 0 {
			if wr.Correct {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			continue
		}
		d := summarize(vals)
		wr.EndToEnd[m.Name], wr.Value[m.Name] = d, d.Median
	}

	if wr.traced != nil {
		wr.TracedFingerprint = wr.traced.res.Fingerprint
	}
	if wr.traced == nil || !wr.Correct {
		return nil
	}
	wr.PerLayer = wr.traced.res.Layers
	if wr.PerLayer == nil {
		wr.PerLayer = map[string]float64{}
	}
	_, tracedOps := runMetrics(*wr.traced)
	wr.PerLayer["trace_overhead_frac"] = median(tracedOps)/wr.Value["op_p50_ms"] - 1
	wr.PerLayer["host.op_p50_ms"] = median(runValues(*wr, "host.op_p50_ms"))
	wr.PerLayer["host.calibration_ms"] = median(runValues(*wr, "host.calibration_ms"))
	wr.Notes = wr.traced.res.Notes
	for _, m := range spec.PerLayer {
		if _, ok := wr.PerLayer[m.Name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
	}
	return nil
}

func printWorkload(w io.Writer, spec benchSpec, wr workloadRecord, o options) {
	fmt.Fprintf(w, "== %s, seed %d: %d timed runs of %d s, %d rounds, %d set-ups, %d operations (%d failed)\n",
		wr.Name, o.seed, len(wr.iters), o.seconds, wr.Rounds, len(wr.SetupS), wr.Attempted, wr.Failed)
	for _, m := range spec.EndToEnd {
		v, ok := wr.Value[m.Name]
		if !ok {
			continue
		}
		d := wr.EndToEnd[m.Name]
		n := fmt.Sprintf("median of %d runs", d.N)
		switch m.Name {
		case "setup_s":
			n = fmt.Sprintf("median of %d set-ups", d.N)
		case "op_p50_ms":
			n = fmt.Sprintf("over %d operations, median of %d runs", wr.OpCount, d.N)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s; runs q1 %.6g q3 %.6g, spread %.3f\n", m.Name, v, m.Unit, n, d.Q1, d.Q3, d.Spread)
	}
	// The 90th percentile is shown only where a run has at least ten
	// operations beyond it; it is not a tracked metric.
	if len(wr.iters) > 0 && wr.OpCount >= 100*len(wr.iters) {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s over %d operations, median of %d runs\n", "op_p90_ms", median(runValues(wr, "op_p90_ms")), "ms", wr.OpCount, len(wr.iters))
	}
	if raw := runValues(wr, "host.op_p50_ms"); len(raw) > 0 {
		fmt.Fprintf(w, "  host time: op_p50 %.6g ms, calibration %.6g ms (reference %.0f ms)\n",
			median(raw), median(runValues(wr, "host.calibration_ms")), refCalibrationMS)
	}
	if wr.Fingerprint != "" {
		check := "runs agree"
		if g := goldens[wr.Name]; g != "" && o.seed == 1 && !o.smoke {
			check = "matches the seed-1 record"
		}
		fmt.Fprintf(w, "  fingerprint %s (%s)\n", wr.Fingerprint, check)
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "  per-layer (traced run, trace %s):\n", filepath.Join(o.out, wr.Trace))
	for _, m := range spec.PerLayer {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.Name, wr.PerLayer[m.Name], m.Unit)
	}
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
