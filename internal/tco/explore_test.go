package tco

import (
	"strings"
	"testing"
)

func TestSweepMarginsMonotone(t *testing.T) {
	fixed := Table3Gains()
	points, err := SweepMargins(DefaultCloudDC(), fixed, []float64{1, 1.5, 2, 3, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].TCOImprovement < points[i-1].TCOImprovement {
			t.Fatal("TCO not monotone in margins gain")
		}
		if points[i].OverallEE <= points[i-1].OverallEE {
			t.Fatal("EE not monotone in margins gain")
		}
	}
	// margins=1 means no UniServer contribution: still > 1x TCO from
	// the other sources, but strictly less than the Table 3 point.
	if points[0].TCOImprovement >= points[3].TCOImprovement {
		t.Fatal("margins contribution invisible in sweep")
	}
}

func TestSweepMarginsDiminishingReturns(t *testing.T) {
	points, err := SweepMargins(DefaultCloudDC(), Table3Gains(), []float64{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Energy share bounds the achievable TCO: increments must shrink.
	d1 := points[1].TCOImprovement - points[0].TCOImprovement
	d3 := points[4].TCOImprovement - points[3].TCOImprovement
	if d3 >= d1 {
		t.Fatalf("no diminishing returns: first step %v, last step %v", d1, d3)
	}
}

func TestSweepMarginsValidation(t *testing.T) {
	if _, err := SweepMargins(DefaultCloudDC(), Table3Gains(), nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := SweepMargins(DefaultCloudDC(), Table3Gains(), []float64{0}); err == nil {
		t.Fatal("zero margins gain accepted")
	}
	bad := DefaultCloudDC()
	bad.Servers = 0
	if _, err := SweepMargins(bad, Table3Gains(), []float64{1}); err == nil {
		t.Fatal("invalid deployment accepted")
	}
}

// TestCompareDeployments projects Table 3's gains on the cloud and the
// edge deployment, as tcotool prints them.
func TestCompareDeployments(t *testing.T) {
	cloud, err := ProjectTable3(DefaultCloudDC(), Table3Gains())
	if err != nil {
		t.Fatal(err)
	}
	edge, err := ProjectTable3(DefaultEdgeDC(), Table3Gains())
	if err != nil {
		t.Fatal(err)
	}
	// The edge deployment's higher energy share makes EE worth more.
	if edge.TCOImprovement <= cloud.TCOImprovement {
		t.Fatalf("edge TCO improvement (%v) should exceed cloud (%v)",
			edge.TCOImprovement, cloud.TCOImprovement)
	}
}

func TestRenderSweep(t *testing.T) {
	points, err := SweepMargins(DefaultCloudDC(), Table3Gains(), []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := RenderSweep(points)
	if !strings.Contains(s, "margins gain") || len(strings.Split(strings.TrimSpace(s), "\n")) != 3 {
		t.Fatalf("rendering:\n%s", s)
	}
}
