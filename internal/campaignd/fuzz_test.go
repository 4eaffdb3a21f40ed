package campaignd

import (
	"bytes"
	"testing"
)

// FuzzSubmitRequest drives the submit handler's front half — the
// strict decode and resolve — over arbitrary bodies. Neither may
// panic, and a body both accept must name a grid whose every scenario
// passes Validate and which fits the grid caps: nothing that reaches
// the engine is malformed or oversized. The
// seed corpus (testdata/fuzz/FuzzSubmitRequest) holds a preset
// request, an inline request, a truncated inline request and a request
// with an unknown field.
func FuzzSubmitRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSubmit(bytes.NewReader(data))
		if err != nil {
			return
		}
		scens, err := req.resolve()
		if err != nil {
			return
		}
		if len(scens) == 0 || len(req.Seeds) == 0 || len(req.Seeds) > maxSeeds {
			t.Fatalf("accepted a grid of %d scenarios × %d seeds", len(scens), len(req.Seeds))
		}
		nodeWindows := 0
		for i, s := range scens {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted scenario %d (%q) fails Validate: %v", i, s.Name, err)
			}
			if s.Nodes > maxNodes || s.TotalWindows() > maxWindows {
				t.Fatalf("accepted scenario %d (%q) of %d nodes × %d windows", i, s.Name, s.Nodes, s.TotalWindows())
			}
			nodeWindows += s.Nodes * s.TotalWindows() * len(req.Seeds)
		}
		if nodeWindows > maxNodeWindows {
			t.Fatalf("accepted %d node-windows", nodeWindows)
		}
	})
}
