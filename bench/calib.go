package main

import (
	"slices"
	"time"
)

const (
	// refCalibrationMS is the reference host speed every reported time
	// is scaled to: a host on which one calibration takes this long.
	refCalibrationMS = 50.0
	// calibrateEveryMS sets how often a run calibrates: after each round,
	// once per this much round time, at least once. One calibration
	// takes about a tenth of it.
	calibrateEveryMS = 500.0
)

// calibrator times a fixed piece of standard-library work that shares
// nothing with the simulator: integer arithmetic on registers, copies
// of a buffer larger than the caches, and a sort of a cache-sized
// array. Timed between a run's rounds, it measures how fast the host
// runs while the run runs, so the run's times scaled by the median
// calibration no longer move with host speed but still move with the
// simulator's own cost. It allocates nothing after newCalibrator.
type calibrator struct {
	src, dst []byte
	keys     []float64
}

// calibSink keeps the arithmetic and the sort from being optimized away.
var calibSink uint64

func newCalibrator() *calibrator {
	c := &calibrator{src: make([]byte, 8<<20), dst: make([]byte, 8<<20), keys: make([]float64, 1<<17)}
	for i := range c.src {
		c.src[i] = byte(i * 131)
	}
	return c
}

// run does the calibration work once and returns its host time in
// milliseconds.
func (c *calibrator) run() float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 8_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	for k := 0; k < 6; k++ {
		copy(c.dst, c.src)
	}
	for i := range c.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = float64(x >> 11)
	}
	slices.Sort(c.keys)
	calibSink += x + uint64(c.keys[len(c.keys)/2]) + uint64(c.dst[len(c.dst)-1])
	return ms(time.Since(start))
}

// after calibrates following a round that took wallMS: once per
// calibrateEveryMS of it, at least once.
func (c *calibrator) after(wallMS float64) []float64 {
	out := []float64{c.run()}
	for len(out) < int(wallMS/calibrateEveryMS) {
		out = append(out, c.run())
	}
	return out
}
