package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// compareRecords prints, for every workload in both records and every
// end-to-end metric, each side's median and quartiles, the share of run
// pairs B won, and a verdict. A is the parent, B the change; run i of A
// pairs with run i of B. It exits 1 when a metric regressed.
func compareRecords(spec benchSpec, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: -compare A.json B.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: reading %s: %v\n", path, err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	fmt.Fprintf(stdout, "A %s: %s, %s, GOMAXPROCS %d, seed %d\n", args[0], a.Date, a.Env, a.GOMAXPROCS, a.Seed)
	fmt.Fprintf(stdout, "B %s: %s, %s, GOMAXPROCS %d, seed %d\n", args[1], b.Date, b.Env, b.GOMAXPROCS, b.Seed)
	if a.Env != b.Env || a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintln(stdout, "warning: the records come from different environments; their times are not comparable")
	}
	code := 0
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w workloadRecord) bool { return w.Name == wa.Name })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		for _, m := range spec.EndToEnd {
			av, bv := runValues(wa, m.Name), runValues(wb, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			da, db := summarize(av), summarize(bv)
			wins, pairs, verdict := judge(m, av, bv)
			if verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-11s %-19s A %-10.5g [%.5g, %.5g]  B %-10.5g [%.5g, %.5g]  B won %d/%d  %s\n",
				wa.Name, m.Name, da.Median, da.Q1, da.Q3, db.Median, db.Q1, db.Q3, wins, pairs, verdict)
		}
	}
	return code
}

// runValues is one metric's value in every run of a record.
func runValues(w workloadRecord, name string) []float64 {
	if name == "setup_s" {
		return w.SetupS
	}
	var out []float64
	for _, r := range w.Runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// judge applies the rule for claiming a change: "improved" needs at
// least ten pairs, B winning nine tenths of them (ties count for
// neither), and the medians to differ by more than A's interquartile
// range; a spread wider than the metric's bound on either side is
// "unresolved" unless every run of B beats every run of A; otherwise
// B's median may be worse than A's by at most the bound ("no worse") or
// it "regressed".
func judge(m metricSpec, a, b []float64) (wins, pairs int, verdict string) {
	lower := m.Better == "lower"
	beats := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	da, db := summarize(a), summarize(b)
	gain := da.Median - db.Median
	if !lower {
		gain = -gain
	}
	worstB, bestA := slices.Max(b), slices.Min(a)
	if !lower {
		worstB, bestA = slices.Min(b), slices.Max(a)
	}
	switch {
	case pairs >= 10 && wins*10 >= pairs*9 && gain > da.Q3-da.Q1:
		return wins, pairs, "improved"
	case max(da.Spread, db.Spread) > m.Bound:
		if beats(worstB, bestA) {
			return wins, pairs, "no worse"
		}
		return wins, pairs, "unresolved"
	case -gain > m.Bound*math.Abs(da.Median):
		return wins, pairs, "regressed"
	}
	return wins, pairs, "no worse"
}
