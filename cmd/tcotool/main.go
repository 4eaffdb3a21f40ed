// Command tcotool is the TCO estimation tool of innovation (vii):
// it reproduces Table 3's energy-efficiency and TCO projection and
// explores the design space across cloud and edge deployments,
// including the yield-driven chip-cost discount the paper anticipates.
package main

import (
	"flag"
	"fmt"
	"log"

	"uniserver/internal/tco"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcotool: ")

	table3 := tco.Table3Gains()
	scaling := flag.Float64("scaling", table3.Scaling, "EE gain from technology scaling / FinFET")
	sw := flag.Float64("sw", table3.SWMaturity, "EE gain from ARM server software maturity")
	fog := flag.Float64("fog", table3.Fog, "EE gain from running at the Edge")
	margins := flag.Float64("margins", table3.Margins, "EE gain from extended operating points")
	yield := flag.Float64("yield-discount", 0.10, "chip-cost discount from higher yield (0..1)")
	flag.Parse()

	gains := tco.GainSources{Scaling: *scaling, SWMaturity: *sw, Fog: *fog, Margins: *margins}
	if err := gains.Validate(); err != nil {
		log.Fatal(err)
	}
	if *yield < 0 || *yield >= 1 {
		log.Fatalf("-yield-discount %v: want a fraction in [0,1)", *yield)
	}

	fmt.Println("== Table 3: energy efficiency and TCO improvement estimation ==")
	for _, dc := range []tco.DataCenter{tco.DefaultCloudDC(), tco.DefaultEdgeDC()} {
		p, err := tco.ProjectTable3(dc, gains)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (%d servers, %.0fW avg, PUE %.2f, %.0fy lifetime)\n",
			dc.Name, dc.Servers, dc.ServerAvgPowerW, dc.PUE, dc.LifetimeYears)
		fmt.Printf("  TCO baseline:   $%.0f (energy share %.1f%%)\n", dc.TCOUSD(), dc.EnergyShare()*100)
		fmt.Printf("  %s\n", p)

		improved, err := dc.ApplyEnergyEfficiency(gains.OverallEE())
		if err != nil {
			log.Fatal(err)
		}
		withYield, err := improved.ApplyYieldDiscount(*yield)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  with %.0f%% yield discount on chip cost: TCO %.3fx\n",
			*yield*100, tco.Improvement(dc, withYield))
	}
	fmt.Println("\n== design-space exploration: TCO versus margins gain (cloud deployment) ==")
	sweep, err := tco.SweepMargins(tco.DefaultCloudDC(), gains,
		[]float64{1, 1.5, 2, 2.5, 3, 4, 6, 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tco.RenderSweep(sweep))

	fmt.Println("\npaper Table 3: 1.5 x 4 x 2 x 3 = 36x overall EE, 1.15x TCO from energy alone,")
	fmt.Println("\"actual TCO improvement will be even more because of lower chip cost due to higher yield\"")
}
