// Package workload models the applications the paper evaluates with:
// the LDBC Social Network Benchmark running on a graph database inside
// VMs (the Figure 3 memory-footprint experiment: "four instances of
// VMs, each of which accommodates a graph database benchmark ... This
// application stresses the CPU, disk I/O and network"), an IoT edge
// analytics service for the Section 6.D edge scenario, and generic VM
// arrival streams for the resource-management experiments.
package workload

import (
	"fmt"
	"math"
	"time"

	"uniserver/internal/rng"
)

// Profile describes the steady behaviour of one application.
type Profile struct {
	Name string
	// CPUActivity is the average switching-activity factor in [0,1].
	CPUActivity float64
	// DroopIntensity positions the workload's di/dt behaviour in [0,1].
	DroopIntensity float64
	// MemTargetBytes is the steady-state working set.
	MemTargetBytes uint64
	// DiskIOPS and NetMbps characterize the I/O pressure (used by the
	// scheduler's interference model and the footprint experiment's
	// "stresses the CPU, disk I/O and network" claim).
	DiskIOPS float64
	NetMbps  float64
}

// LDBCSocialNetwork returns the LDBC SNB interactive workload profile
// on a Sparksee-style graph database: a few-GB working set that ramps
// as the graph loads, with heavy disk and network activity.
func LDBCSocialNetwork() Profile {
	return Profile{
		Name:           "ldbc-snb-interactive",
		CPUActivity:    0.72,
		DroopIntensity: 0.55,
		MemTargetBytes: 3576 << 20, // ~3.5 GiB per VM instance
		DiskIOPS:       2400,
		NetMbps:        320,
	}
}

// IoTEdgeAnalytics returns the latency-sensitive edge service of
// Section 6.D: a modest working set with strict end-to-end deadlines.
func IoTEdgeAnalytics() Profile {
	return Profile{
		Name:           "iot-edge-analytics",
		CPUActivity:    0.45,
		DroopIntensity: 0.30,
		MemTargetBytes: 512 << 20,
		DiskIOPS:       150,
		NetMbps:        90,
	}
}

// WebFrontend returns a bursty user-facing service used to populate
// heterogeneous clusters in the scheduling experiments.
func WebFrontend() Profile {
	return Profile{
		Name:           "web-frontend",
		CPUActivity:    0.38,
		DroopIntensity: 0.42,
		MemTargetBytes: 1024 << 20,
		DiskIOPS:       400,
		NetMbps:        210,
	}
}

// BatchAnalytics returns a throughput-oriented batch job that
// tolerates relaxed reliability (a natural tenant for deep EOP).
func BatchAnalytics() Profile {
	return Profile{
		Name:           "batch-analytics",
		CPUActivity:    0.88,
		DroopIntensity: 0.65,
		MemTargetBytes: 6 << 30,
		DiskIOPS:       900,
		NetMbps:        80,
	}
}

// DroopVirus returns a malicious guest executing a voltage-noise
// virus: maximal di/dt excitation at high activity, the availability
// attack of the security analysis. A host running at a deep extended
// operating point can be pushed past its crash voltage by this
// profile; scenario layers inject it to measure the blast radius.
func DroopVirus() Profile {
	return Profile{
		Name:           "droop-virus",
		CPUActivity:    0.95,
		DroopIntensity: 0.98,
		MemTargetBytes: 256 << 20,
		DiskIOPS:       50,
		NetMbps:        10,
	}
}

// Profiles returns the built-in profile catalogue.
func Profiles() []Profile {
	return []Profile{LDBCSocialNetwork(), IoTEdgeAnalytics(), WebFrontend(), BatchAnalytics()}
}

// VMSpec sizes a virtual machine and binds it to a workload profile.
type VMSpec struct {
	Name     string
	VCPUs    int
	MemBytes uint64
	Profile  Profile
}

// Validate reports configuration errors.
func (s VMSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: VM spec missing name")
	}
	if s.VCPUs <= 0 {
		return fmt.Errorf("workload: VM %q has %d vCPUs", s.Name, s.VCPUs)
	}
	if s.MemBytes == 0 {
		return fmt.Errorf("workload: VM %q has zero memory", s.Name)
	}
	if s.MemBytes < s.Profile.MemTargetBytes {
		return fmt.Errorf("workload: VM %q memory %d below profile working set %d",
			s.Name, s.MemBytes, s.Profile.MemTargetBytes)
	}
	return nil
}

// Arrival is one VM arrival in a stream.
type Arrival struct {
	At       time.Duration // offset from stream start
	Spec     VMSpec
	Lifetime time.Duration
}

// StreamConfig shapes a VM arrival stream.
type StreamConfig struct {
	N            int
	MeanGap      time.Duration // mean inter-arrival gap (exponential)
	MeanLifetime time.Duration // mean VM lifetime (exponential)
	MinLifetime  time.Duration
}

// DefaultStreamConfig returns a stream of 50 VMs arriving every ~5
// minutes with hour-scale lifetimes.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		N:            50,
		MeanGap:      5 * time.Minute,
		MeanLifetime: 2 * time.Hour,
		MinLifetime:  10 * time.Minute,
	}
}

// Stream generates a deterministic arrival stream: VM specs cycle
// through the profile catalogue with exponential inter-arrival gaps
// and lifetimes ("real-world scenarios where OpenStack would manage
// streams of incoming and terminating VMs"). It is PatternedStream at
// the constant base rate — same draws, same gaps.
func Stream(cfg StreamConfig, src *rng.Source) ([]Arrival, error) {
	return PatternedStream(cfg, nil, src)
}

// RateFn modulates an arrival stream's instantaneous intensity: it
// returns a multiplier on the base arrival rate at offset `at` from
// stream start. 1 is the base rate, 4 is a 4x burst, values are
// clamped below at 0.05 so a quiet phase slows arrivals rather than
// stopping time. A RateFn must be a pure function of `at` — the
// determinism contract of every stream consumer depends on it.
type RateFn func(at time.Duration) float64

// SteadyRate is the identity pattern: a constant-rate Poisson stream,
// identical to Stream.
func SteadyRate() RateFn {
	return func(time.Duration) float64 { return 1 }
}

// DiurnalRate oscillates the arrival rate sinusoidally around 1 with
// the given period: rate(t) = 1 + depth*sin(2πt/period). depth in
// [0,1) keeps the rate positive; the peak-to-trough ratio is
// (1+depth)/(1-depth).
func DiurnalRate(period time.Duration, depth float64) RateFn {
	return func(at time.Duration) float64 {
		return 1 + depth*math.Sin(2*math.Pi*float64(at)/float64(period))
	}
}

// BurstRate multiplies the base rate by `factor` inside the window
// [start, start+width) — a tenant onboarding wave or a load spike.
func BurstRate(start, width time.Duration, factor float64) RateFn {
	return func(at time.Duration) float64 {
		if at >= start && at < start+width {
			return factor
		}
		return 1
	}
}

// PatternedStream generates a deterministic arrival stream whose
// instantaneous rate is the base rate (1/MeanGap) scaled by the
// pattern: the i-th inter-arrival gap is an exponential draw divided
// by rate(at). With SteadyRate it degenerates to Stream's arithmetic
// exactly (same draws, same gaps), so a steady scenario and a plain
// stream with the same source are byte-identical.
func PatternedStream(cfg StreamConfig, rate RateFn, src *rng.Source) ([]Arrival, error) {
	if rate == nil {
		rate = SteadyRate()
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workload: stream N must be positive")
	}
	if cfg.MeanGap <= 0 || cfg.MeanLifetime <= 0 {
		return nil, fmt.Errorf("workload: stream gaps and lifetimes must be positive")
	}
	profiles := Profiles()
	arrivals := make([]Arrival, 0, cfg.N)
	at := time.Duration(0)
	for i := 0; i < cfg.N; i++ {
		p := profiles[i%len(profiles)]
		life := time.Duration(src.Exponential(1) * float64(cfg.MeanLifetime))
		if life < cfg.MinLifetime {
			life = cfg.MinLifetime
		}
		mem := p.MemTargetBytes + p.MemTargetBytes/4 // 25% headroom
		arrivals = append(arrivals, Arrival{
			At: at,
			Spec: VMSpec{
				Name:     fmt.Sprintf("vm-%03d-%s", i, p.Name),
				VCPUs:    1 + i%4,
				MemBytes: mem,
				Profile:  p,
			},
			Lifetime: life,
		})
		r := rate(at)
		if r < 0.05 {
			r = 0.05
		}
		at += time.Duration(src.Exponential(1) * float64(cfg.MeanGap) / r)
	}
	return arrivals, nil
}
