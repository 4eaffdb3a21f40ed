package tco

import (
	"errors"
	"fmt"
	"strings"
)

// SweepPoint is one design-space sample: a margins-gain hypothesis and
// the TCO it buys.
type SweepPoint struct {
	MarginsGain    float64
	OverallEE      float64
	TCOImprovement float64
}

// SweepMargins explores the design space along the margins axis (the
// knob UniServer actually contributes), holding the other Table 3
// sources fixed: how much TCO improvement does each increment of
// guardband recovery buy for this deployment? This is the "end-to-end
// estimation of the TCO and data-center design exploration" tool of
// Section 6.D.
func SweepMargins(base DataCenter, fixed GainSources, marginGains []float64) ([]SweepPoint, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if len(marginGains) == 0 {
		return nil, errors.New("tco: empty margins sweep")
	}
	out := make([]SweepPoint, 0, len(marginGains))
	for _, mg := range marginGains {
		g := fixed
		g.Margins = mg
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("tco: margins gain %v: %w", mg, err)
		}
		p, err := ProjectTable3(base, g)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			MarginsGain:    mg,
			OverallEE:      p.OverallEE,
			TCOImprovement: p.TCOImprovement,
		})
	}
	return out, nil
}

// RenderSweep renders a margins sweep as a text table.
func RenderSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s  %10s  %8s\n", "margins gain", "overall EE", "TCO")
	for _, p := range points {
		fmt.Fprintf(&b, "%11.2fx  %9.1fx  %7.3fx\n", p.MarginsGain, p.OverallEE, p.TCOImprovement)
	}
	return b.String()
}
