package fleet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"uniserver/internal/fleet"
	"uniserver/internal/scenario"
)

// The two archetype bins the bundled presets use, exactly as
// ArchetypeBin renders them.
const (
	binI5 = "part={Model:i5-4200U Nominal:0.844V@2600MHz Cores:2 Proc:{Name:22nm-mobile VthMV:420 SlopeMVPerGHz:125.2 D2DSigmaMV:2 WIDSigmaMV:0.5 DroopPctTypical:0.5 DroopPctWorst:1.7} DroopMinMV:4 DroopMaxMV:14 ExposesCacheECC:true ECCOnsetMeanMV:15 ECCOnsetSigmaMV:3 RunNoiseMV:0.4 VIDStepMV:2} mem={Channels:2 DIMMsPerChannel:1 DIMMBytes:8589934592 DeviceGb:2 TempC:45}"
	binI7 = "part={Model:i7-3970X Nominal:1.365V@4000MHz Cores:6 Proc:{Name:32nm-desktop VthMV:500 SlopeMVPerGHz:160 D2DSigmaMV:4 WIDSigmaMV:3.2 DroopPctTypical:1.1 DroopPctWorst:8} DroopMinMV:15 DroopMaxMV:110 ExposesCacheECC:false ECCOnsetMeanMV:15 ECCOnsetSigmaMV:3 RunNoiseMV:2 VIDStepMV:2} mem={Channels:2 DIMMsPerChannel:1 DIMMBytes:8589934592 DeviceGb:2 TempC:45}"
)

// TestCharactKeyFormatPinned pins every characterization-cache key a
// bundled preset's fleet run resolves at seed 1 — each node's per-node
// key and archetype key, with and without a health log — byte for
// byte. Spill filenames hash these keys and ArchetypeSeed derives the
// archetype characterization seed from the bin string, so a changed
// rendering would silently orphan every spill directory and move the
// archetype fingerprints. The goldens were recorded from the
// fmt-rendered keys the memo replaced.
func TestCharactKeyFormatPinned(t *testing.T) {
	golden := map[string]struct {
		keys string
		bins []string
	}{
		"aging-year":     {"1e27cb5cd9e8713f03f1ea23ec18533fb762f3a4d25a6a75b115cce51dad7a93", []string{binI5}},
		"baseline":       {"1e27cb5cd9e8713f03f1ea23ec18533fb762f3a4d25a6a75b115cce51dad7a93", []string{binI5}},
		"diurnal-burst":  {"1e27cb5cd9e8713f03f1ea23ec18533fb762f3a4d25a6a75b115cce51dad7a93", []string{binI5}},
		"drift-cadence":  {"4a7cd52cf4ba35031c7594486542ee04b7faf88bd5483fceeee44b64568ac296", []string{binI5}},
		"droop-attack":   {"1e27cb5cd9e8713f03f1ea23ec18533fb762f3a4d25a6a75b115cce51dad7a93", []string{binI5}},
		"ecc-closedloop": {"1e27cb5cd9e8713f03f1ea23ec18533fb762f3a4d25a6a75b115cce51dad7a93", []string{binI5}},
		"fleet-100k":     {"6139c1beaac2e403e43e166c8227014ba89c6ad1c84e7db531b1eecd1b2991b9", []string{binI5, binI7}},
		"hetero-bins":    {"b68845fb59462524851b7c0c61e4edf9225361dfbbc0b257c99f5c71b5bc500e", []string{binI5, binI7}},
		"mode-churn":     {"1e27cb5cd9e8713f03f1ea23ec18533fb762f3a4d25a6a75b115cce51dad7a93", []string{binI5}},
		"recharact-1mo":  {"4a7cd52cf4ba35031c7594486542ee04b7faf88bd5483fceeee44b64568ac296", []string{binI5}},
		"recharact-3mo":  {"4a7cd52cf4ba35031c7594486542ee04b7faf88bd5483fceeee44b64568ac296", []string{binI5}},
		"recharact-6mo":  {"4a7cd52cf4ba35031c7594486542ee04b7faf88bd5483fceeee44b64568ac296", []string{binI5}},
		"thermal-summer": {"1e27cb5cd9e8713f03f1ea23ec18533fb762f3a4d25a6a75b115cce51dad7a93", []string{binI5}},
	}
	presets := scenario.Presets()
	if len(presets) != len(golden) {
		t.Fatalf("%d bundled presets, %d pinned: pin the new preset's keys", len(presets), len(golden))
	}
	for _, sc := range presets {
		want, ok := golden[sc.Name]
		if !ok {
			t.Errorf("preset %s has no pinned keys", sc.Name)
			continue
		}
		cfg, err := sc.FleetConfig(1)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		seen := map[string]bool{}
		for _, wantLog := range []bool{false, true} {
			keys := fleet.CharactKeys(cfg, wantLog)
			for i := 0; i < cfg.Nodes; i++ {
				bin, nodeKey, archKey := keys(i)
				seen[bin] = true
				fmt.Fprintf(h, "%s\n%s\n", nodeKey, archKey)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want.keys {
			t.Errorf("%s: characterization keys hash to %s, pinned %s", sc.Name, got, want.keys)
		}
		if len(seen) != len(want.bins) {
			t.Errorf("%s: %d distinct bins, pinned %d", sc.Name, len(seen), len(want.bins))
		}
		for _, b := range want.bins {
			if !seen[b] {
				t.Errorf("%s: pinned bin not rendered:\n%s", sc.Name, b)
			}
		}
	}
}
