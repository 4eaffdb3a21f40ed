// Command benchgraph renders the repo's run-over-run benchmark
// histories (BENCH_fleet.json, BENCH_campaign.json) as a markdown
// report: one table per benchmark plus an ASCII sparkline of the
// ns/op trajectory, so a perf trend is visible at a glance — in the
// terminal, in a CI artifact, or pasted into a PR. The benchmarks own
// the histories; this tool draws them, and merges artifacts into them.
//
//	go run ./cmd/benchgraph                 # render both histories to stdout
//	go run ./cmd/benchgraph -o BENCH_HISTORY.md
//	go run ./cmd/benchgraph -merge artifact/BENCH_fleet.json
//	go run ./cmd/benchgraph -merge artifact/BENCH_campaign.json
//
// -merge is the one write operation: it folds the records of a
// CI-produced bench artifact into the committed history its
// "benchmark" field names (-campaign for BenchmarkCampaign, -fleet
// otherwise), deduplicated by date+environment, so committing a
// runner's measurements (the records that arm the CI-class regression
// fences) is one command plus `git commit` instead of hand-edited
// JSON. The history is rewritten exactly as the benchmarks write it,
// so a merge that adds nothing leaves it byte-identical.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"uniserver/internal/benchhist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgraph: ")
	fleetPath := flag.String("fleet", "BENCH_fleet.json", "fleet benchmark history (empty to skip)")
	campaignPath := flag.String("campaign", "BENCH_campaign.json", "campaign benchmark history (empty to skip)")
	outPath := flag.String("o", "", "write the markdown report here (default stdout)")
	mergePath := flag.String("merge", "", "merge the records of this downloaded bench artifact into -fleet or -campaign, then exit")
	flag.Parse()

	if *mergePath != "" {
		if err := merge(*fleetPath, *campaignPath, *mergePath); err != nil {
			log.Fatal(err)
		}
		return
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		out = f
	}
	fmt.Fprintf(out, "# Benchmark history\n")
	if *fleetPath != "" {
		if err := renderFleet(out, *fleetPath); err != nil {
			log.Fatal(err)
		}
	}
	if *campaignPath != "" {
		if err := renderCampaign(out, *campaignPath); err != nil {
			log.Fatal(err)
		}
	}
}

// merge folds the artifact into the committed history of the
// benchmark that wrote it (see benchhist.Merge).
func merge(fleetPath, campaignPath, artifact string) error {
	dst, added, err := benchhist.Merge(fleetPath, campaignPath, artifact)
	if err != nil {
		return err
	}
	log.Printf("merged %d new record(s) from %s into %s", added, artifact, dst)
	return nil
}

func renderFleet(out io.Writer, path string) error {
	var f benchhist.FleetFile
	if err := benchhist.Load(path, &f); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n## %s (%d nodes × %d windows)\n\n", f.Benchmark, f.Nodes, f.Windows)
	fmt.Fprintf(out, "| run | date | env | gomaxprocs | ns/op @1w | best ns/op | best speedup | efficiency | scaling | peak heap |\n")
	fmt.Fprintf(out, "|----:|------|-----|-----------:|----------:|-----------:|-------------:|-----------:|---------|----------:|\n")
	var series, effSeries []float64
	for i, r := range f.Records {
		var oneW, best int64
		var bestSpeed float64
		// recordEffs is the record's efficiency at each worker count, in
		// variant order — the per-record scaling curve. Rendered on an
		// absolute 0..1 scale (1.0 = perfect scaling) so the curves are
		// comparable across rows: a record whose glyphs sag left-to-right
		// is losing efficiency as workers are added.
		var recordEffs []float64
		for _, v := range r.Variants {
			if v.Workers == 1 {
				oneW = v.NsPerOp
			}
			if best == 0 || v.NsPerOp < best {
				best = v.NsPerOp
			}
			if v.Speedup > bestSpeed {
				bestSpeed = v.Speedup
			}
			recordEffs = append(recordEffs, v.Eff())
		}
		// Efficiency (speedup per worker) and peak heap are reported at
		// the record's highest worker count: that is where the ROADMAP's
		// scaling stall lives and where memory pressure peaks. Old
		// records predate both fields; efficiency falls back to
		// speedup/workers, peak renders as a dash.
		top := benchhist.MaxWorker(r.Variants)
		fmt.Fprintf(out, "| %d | %s | %s | %d | %s | %s | %.2fx | %.2f @%dw | `%s` | %s |\n",
			i+1, orDash(r.Date), orDash(r.Env), r.GOMAXPROCS, ns(oneW), ns(best), bestSpeed,
			top.Eff(), top.Workers, absSparkline(recordEffs, 0, 1), mib(top.PeakBytes))
		series = append(series, float64(oneW))
		effSeries = append(effSeries, top.Eff())
	}
	fmt.Fprintf(out, "\nns/op @1 worker, run over run (lower is better):\n\n    %s\n", sparkline(series))
	fmt.Fprintf(out, "\nmax-worker parallel efficiency (speedup/worker), run over run on a 0..1 scale (higher is better):\n\n    %s\n",
		absSparkline(effSeries, 0, 1))
	if len(f.Restore) > 0 {
		renderRestore(out, f)
	}
	return nil
}

// renderRestore draws BenchmarkSnapshotRestore's history: the fixed
// per-node cost of materializing a cached characterization, a
// reference leg vs the warm stamp the fleet runs. Records without a
// reference name measured the deep-clone restore, since deleted.
func renderRestore(out io.Writer, f benchhist.FleetFile) {
	fmt.Fprintf(out, "\n## BenchmarkSnapshotRestore (per-node restore from a cached characterization)\n\n")
	fmt.Fprintf(out, "| run | date | env | gomaxprocs | reference | reference ns/op | reference allocs/op | template ns/op | template allocs/op | speedup |\n")
	fmt.Fprintf(out, "|----:|------|-----|-----------:|-----------|----------------:|--------------------:|---------------:|-------------------:|--------:|\n")
	var series []float64
	for i, r := range f.Restore {
		ref := r.Reference
		if ref == "" {
			ref = "deep restore"
		}
		fmt.Fprintf(out, "| %d | %s | %s | %d | %s | %s | %.0f | %s | %.0f | %.2fx |\n",
			i+1, orDash(r.Date), orDash(r.Env), r.GOMAXPROCS, ref,
			nsFine(r.LegacyNsPerOp), r.LegacyAllocs, nsFine(r.TemplateNsPerOp), r.TemplateAllocs, r.Speedup)
		series = append(series, float64(r.TemplateNsPerOp))
	}
	fmt.Fprintf(out, "\ntemplate ns/op, run over run (lower is better):\n\n    %s\n", sparkline(series))
}

// mib renders a byte count as MiB; zero (pre-field records) as a dash.
func mib(v int64) string {
	if v == 0 {
		return "—"
	}
	return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
}

func renderCampaign(out io.Writer, path string) error {
	var f benchhist.CampaignFile
	if err := benchhist.Load(path, &f); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n## %s (%d presets × %d seeds, %d nodes × %d windows)\n\n",
		f.Benchmark, f.Scenarios, f.Seeds, f.Nodes, f.Windows)
	fmt.Fprintf(out, "pre-optimization reference: %s ns/op\n\n", ns(f.BeforeNs))
	fmt.Fprintf(out, "| run | date | env | gomaxprocs | ns/op | speedup vs pre-opt | cache hits/misses |\n")
	fmt.Fprintf(out, "|----:|------|-----|-----------:|------:|-------------------:|------------------:|\n")
	var series []float64
	for i, r := range f.Records {
		fmt.Fprintf(out, "| %d | %s | %s | %d | %s | %.2fx | %d/%d |\n",
			i+1, orDash(r.Date), orDash(r.Env), r.GOMAXPROCS, ns(r.NsPerOp), r.Speedup, r.CacheHits, r.CacheMisses)
		series = append(series, float64(r.NsPerOp))
	}
	fmt.Fprintf(out, "\nns/op, run over run (lower is better):\n\n    %s\n", sparkline(series))
	return nil
}

// nsFine renders nanoseconds at two-decimal ms resolution, for
// operations (like a single restore) that complete in a few ms.
func nsFine(v int64) string {
	if v == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2fms", float64(v)/1e6)
}

// ns renders nanoseconds human-readably (ms resolution).
func ns(v int64) string {
	if v == 0 {
		return "—"
	}
	return fmt.Sprintf("%.0fms", float64(v)/1e6)
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

// absSparkline draws the series on a fixed lo..hi scale (values
// clamped), so separately-rendered lines are directly comparable —
// used for efficiency, whose natural scale is 0..1.
func absSparkline(series []float64, lo, hi float64) string {
	if len(series) == 0 {
		return "(no records)"
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range series {
		frac := (v - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		b.WriteRune(glyphs[int(frac*float64(len(glyphs)-1))])
	}
	return b.String()
}

// sparkline draws the series with the classic eight block glyphs,
// scaled min→max; a flat series renders mid-height.
func sparkline(series []float64) string {
	if len(series) == 0 {
		return "(no records)"
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	lo, hi := series[0], series[0]
	for _, v := range series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range series {
		idx := len(glyphs) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}
