package scenario_test

import (
	"fmt"
	"log"

	"uniserver/internal/scenario"
)

// ExampleRunCampaign_workers picks a bundled preset, scales it down,
// and runs it as a one-cell campaign at two fleet worker counts: the
// scenario layer inherits the fleet engine's determinism, so the
// fingerprints match byte for byte.
func ExampleRunCampaign_workers() {
	preset, err := scenario.ByName("droop-attack")
	if err != nil {
		log.Fatal(err)
	}
	s := preset.Scale(2, 8) // 2 nodes, 8 windows: example-sized

	run := func(workers int) scenario.Result {
		rep, err := scenario.RunCampaign(scenario.Campaign{
			Scenarios:    []scenario.Scenario{s},
			Seeds:        []uint64{7},
			FleetWorkers: workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep.Results[0]
	}
	seq, par := run(1), run(4)

	fmt.Printf("scenario: %s (%d nodes, %d windows)\n", s.Name, s.Nodes, s.Windows)
	fmt.Printf("fingerprints identical across worker counts: %v\n",
		seq.Fingerprint == par.Fingerprint)
	// Output:
	// scenario: droop-attack (2 nodes, 8 windows)
	// fingerprints identical across worker counts: true
}

// ExampleRunCampaign sweeps a scenario×seed grid in parallel and
// reads the merged report: cells land in grid order — scenario-major,
// seed-minor — whatever order they finish in.
func ExampleRunCampaign() {
	rep, err := scenario.RunCampaign(scenario.Campaign{
		Scenarios: []scenario.Scenario{
			scenario.Baseline().Scale(2, 6),
			scenario.ModeChurn().Scale(2, 6),
		},
		Seeds:    []uint64{1, 2},
		Parallel: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range rep.Results {
		fmt.Printf("%s seed=%d scheduled=%d\n", res.Scenario, res.Seed, res.Summary.Scheduled)
	}
	fmt.Printf("scenarios aggregated: %d\n", len(rep.Scenarios))
	// Output:
	// baseline seed=1 scheduled=1
	// baseline seed=2 scheduled=4
	// mode-churn seed=1 scheduled=1
	// mode-churn seed=2 scheduled=4
	// scenarios aggregated: 2
}
