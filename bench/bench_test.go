package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process:
// under go test, os.Executable is this binary.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at smoke size, one untraced and one
// traced child each, and checks the benchmark's contract: every metric
// BENCHMARK.json names is printed with its unit for every workload, no
// operation fails, the traced fingerprint equals the untraced one, and
// every span nests inside its parent.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seconds", "0", "-trace", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}

	printed := make(map[string]int)
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 {
			printed[f[0]+" "+f[2]]++
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if got := printed[m.Name+" "+m.Unit]; got != len(workloadNames) {
			t.Errorf("%s (%s) printed for %d workloads, want %d", m.Name, m.Unit, got, len(workloadNames))
		}
	}

	data, err := os.ReadFile(filepath.Join(out, "record.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Workloads) != len(workloadNames) {
		t.Fatalf("record holds %d workloads, want %d", len(rec.Workloads), len(workloadNames))
	}
	for _, w := range rec.Workloads {
		if !w.Correct || w.Attempted == 0 || w.Failed != 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed: %v", w.Name, w.Correct, w.Failed, w.Attempted, w.Problems)
		}
		if w.Fingerprint == "" || w.TracedFingerprint != w.Fingerprint {
			t.Errorf("%s: traced fingerprint %q, untraced %q", w.Name, w.TracedFingerprint, w.Fingerprint)
		}
		checkNesting(t, filepath.Join(out, w.Trace))
	}
}

// checkNesting reads a trace file and checks that every span lies
// inside its parent and shares its parent's trace.
func checkNesting(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint64]span, len(tf.Spans))
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d %s ends before it starts", tf.Workload, s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Trace != s.ID {
				t.Errorf("%s: root span %d %s has trace %d", tf.Workload, s.ID, s.Name, s.Trace)
			}
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("%s: span %d %s has no parent %d", tf.Workload, s.ID, s.Name, s.Parent)
		case s.Start < p.Start || s.End > p.End || s.Trace != p.Trace:
			t.Errorf("%s: span %s [%d,%d] trace %d outside parent %s [%d,%d] trace %d",
				tf.Workload, s.Name, s.Start, s.End, s.Trace, p.Name, p.Start, p.End, p.Trace)
		}
	}
	if len(tf.Rollup) == 0 {
		t.Errorf("%s: empty self-time rollup", tf.Workload)
	}
}

// TestSpecNames checks BENCHMARK.json against the benchmark: the
// workloads it lists are the ones implemented, and names and units use
// the characters the format allows.
func TestSpecNames(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("malformed metric %+v", m)
		}
	}
}

// TestQuantiles pins the quartiles to Python's statistics.quantiles and
// p90 to its "inclusive" method.
func TestQuantiles(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{7}, []float64{7, 7, 7}}, // Python refuses a single point
	} {
		got := quantiles(c.data, 4)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	for _, c := range []struct {
		data []float64
		want float64
	}{
		{[]float64{5, 1, 4, 2}, 4.7},
		{[]float64{1, 2}, 1.9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 10},
		{[]float64{3}, 3},
	} {
		if got := p90(c.data); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p90(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

// TestJudge covers each verdict of -compare.
func TestJudge(t *testing.T) {
	ten := func(base float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + 0.01*float64(i%3)
		}
		return v
	}
	m := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{ten(10), ten(8), "improved"},
		{ten(10)[:5], ten(8)[:5], "no worse"}, // too few pairs to claim a gain
		{[]float64{10, 10.1, 9.9, 10, 10.05}, []float64{10.2, 10, 10.1, 9.95, 10}, "no worse"},
		{[]float64{10, 10.1, 9.9, 10, 10.05}, []float64{12, 12.1, 11.9, 12, 12.05}, "regressed"},
		{[]float64{5, 15, 8, 12, 10}, []float64{11, 9, 14, 6, 10}, "unresolved"},
	} {
		if _, _, got := judge(m, c.a, c.b); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
