package core

import (
	"bytes"
	"testing"

	"uniserver/internal/healthlog"

	"uniserver/internal/telemetry"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

func TestRuntimeWindowHeatsTheDie(t *testing.T) {
	var log bytes.Buffer
	opts := smallOptions(81)
	opts.HealthLogOut = &log
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	log.Reset() // keep the runtime windows' vectors only
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.BatchAnalytics()); err != nil {
		t.Fatal(err)
	}
	cpu0, dimm0 := e.Temperatures()
	var last WindowReport
	for i := 0; i < 30; i++ {
		last = e.RuntimeWindow(workload.BatchAnalytics())
	}
	cpu1, dimm1 := e.Temperatures()
	if cpu1 <= cpu0 {
		t.Fatalf("die did not heat under load: %v -> %v", cpu0, cpu1)
	}
	if dimm1 <= dimm0 {
		t.Fatalf("DIMMs did not heat: %v -> %v", dimm0, dimm1)
	}
	if last.CPUTempC != cpu1 {
		t.Fatal("window report temperature inconsistent")
	}
	if last.ThermalAlarm != 0 {
		t.Fatalf("micro-server should not trip thermally at %v C", cpu1)
	}
	// The DRAM retention model must see the DIMM temperature.
	if e.Mem.TempC != dimm1 {
		t.Fatal("memory system temperature not updated")
	}
	// Temperature sensor recorded in the information vectors.
	vecs, err := healthlog.ReadLog(&log)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range vecs {
		if _, ok := v.Sensor(telemetry.SensorTemperature); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("no temperature readings in the HealthLog")
	}
}

func TestThermalTripForcesNominal(t *testing.T) {
	e, _ := readyEcosystem(t, 82)
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	// Simulate a cooling failure: the die is already past the trip
	// threshold when the next window executes.
	e.cpuTherm.AmbientC = 100
	e.cpuTherm.TempC = 99
	rep := e.RuntimeWindow(workload.WebFrontend())
	if rep.ThermalAlarm != 2 {
		t.Fatalf("alarm = %d, want trip", rep.ThermalAlarm)
	}
	if e.Mode() != vfr.ModeNominal {
		t.Fatal("thermal trip did not force nominal fallback")
	}
	if e.Hypervisor.Point() != e.Machine.Spec.Nominal {
		t.Fatal("operating point not restored to nominal")
	}
}

func TestThermalWarningRecorded(t *testing.T) {
	e, _ := readyEcosystem(t, 83)
	if _, err := e.EnterMode(vfr.ModeHighPerformance, 0.05, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	e.cpuTherm.AmbientC = 88
	e.cpuTherm.TempC = 87
	rep := e.RuntimeWindow(workload.WebFrontend())
	if rep.ThermalAlarm != 1 {
		t.Fatalf("alarm = %d, want warning", rep.ThermalAlarm)
	}
	// A warning does not force a fallback.
	if e.Mode() == vfr.ModeNominal {
		t.Fatal("warning should not force nominal")
	}
}
