package campaignd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"uniserver/internal/resultstore"
)

// TestExecutedCellsStoredUnderPlannedKeys: every executed cell is put
// under the key its submission was planned with, carrying the
// canonical request that key hashes, and the done event counts one put
// per executed cell and no failure.
func TestExecutedCellsStoredUnderPlannedKeys(t *testing.T) {
	srv, ts := newTestServer(t, 2)
	_, events := submit(t, ts, inlineSubmission(t))
	done := events[len(events)-1]
	if done.Type != "done" || done.Status != "complete" {
		t.Fatalf("last event %+v, want a complete done event", done)
	}
	scens, seeds := testGrid()
	if done.Store == nil || done.Store.Puts != uint64(len(scens)*len(seeds)) || done.Store.PutFailures != 0 {
		t.Fatalf("done event store stats %+v, want %d puts and no failures", done.Store, len(scens)*len(seeds))
	}
	for _, sc := range scens {
		for _, seed := range seeds {
			key, canonical, err := resultstore.CellKey(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := srv.store.GetCell(key)
			if !ok {
				t.Fatalf("cell %s seed %d not stored under its key %s", sc.Name, seed, key)
			}
			if !bytes.Equal(rec.Request, canonical) {
				t.Errorf("cell %s seed %d stored with request %s, want %s", sc.Name, seed, rec.Request, canonical)
			}
		}
	}
}

// roundClient is one closed-loop client of TestServiceRoundMixedCells:
// the chain of seeds it submits, and the fingerprint of every cell it
// stored or saw executed.
type roundClient struct {
	seed func(k int) uint64
	seen map[string]string
}

// roundSpillPresets characterize exactly like baseline at the same
// seed, so their cells find their characterizations in the store's
// spill once baseline ran at that seed.
var roundSpillPresets = []string{"mode-churn", "droop-attack", "diurnal-burst"}

// requests is round r's submissions: baseline at y(r+1) beside the
// stored baseline at y(r), then each spill preset at y(r+1) beside the
// now stored baseline at y(r+1). Each reads one stored cell and
// executes one.
func (c *roundClient) requests(r int) []SubmitRequest {
	prev, next := c.seed(r), c.seed(r+1)
	reqs := []SubmitRequest{{Presets: []string{"baseline"}, Seeds: []uint64{prev, next}, Nodes: 2, Windows: 4}}
	for _, p := range roundSpillPresets {
		reqs = append(reqs, SubmitRequest{Presets: []string{"baseline", p}, Seeds: []uint64{next}, Nodes: 2, Windows: 4})
	}
	return reqs
}

// postCampaign submits req and reads its stream to the done event. Any
// failure — transport, status, a cell error, a done status other than
// complete, a wrong cached/executed split or a stored cell served with
// a fingerprint other than the one it was stored with — comes back as
// an error carrying the server's full text.
func (c *roundClient) postCampaign(client *http.Client, url string, req SubmitRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, msg)
	}
	var cells []event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("stream line %q: %w", sc.Bytes(), err)
		}
		switch ev.Type {
		case "cell":
			if ev.Err != "" {
				return fmt.Errorf("cell %s seed %d: %s", ev.Scenario, ev.Seed, ev.Err)
			}
			cells = append(cells, ev)
		case "done":
			if ev.Status != "complete" {
				return fmt.Errorf("run %s %s: %s", ev.RunID, ev.Status, ev.Err)
			}
			return c.check(cells)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a done event")
}

// check verifies one submission's cells: one stored, served with the
// fingerprint it was stored with, and one executed, which it
// remembers.
func (c *roundClient) check(cells []event) error {
	cached := 0
	for _, ev := range cells {
		id := fmt.Sprintf("%s@%d", ev.Scenario, ev.Seed)
		if !ev.Cached {
			c.seen[id] = ev.FingerprintSHA256
			continue
		}
		cached++
		if want, ok := c.seen[id]; !ok || want != ev.FingerprintSHA256 {
			return fmt.Errorf("stored cell %s served with fingerprint %s, stored with %q", id, ev.FingerprintSHA256, want)
		}
	}
	if len(cells) != 2 || cached != 1 {
		return fmt.Errorf("%d cells, %d of them cached; want 2 and 1", len(cells), cached)
	}
	return nil
}

// TestServiceRoundMixedCells mirrors the service benchmark's rounds in
// process: over one store and a pool of two, each client's first
// baseline cell is stored, one at a time (the first stamps the spill
// directory), then two closed-loop clients each submit rounds of cells
// that read one stored cell and execute one, half of them
// characterizing from the spill. Every failed operation is reported
// with its full error text. CI loops it under -race.
func TestServiceRoundMixedCells(t *testing.T) {
	const clients, rounds = 2, 2
	srv, ts := newTestServer(t, 2)
	cls := make([]*roundClient, clients)
	for c := range cls {
		base := uint64(1_000_000 + c)
		cls[c] = &roundClient{seed: func(k int) uint64 { return base + uint64(k*clients) }, seen: map[string]string{}}
	}
	scens, err := SubmitRequest{Presets: []string{"baseline"}, Seeds: []uint64{1}, Nodes: 2, Windows: 4}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	store := func(c int) error {
		_, rep, err := srv.Submit(scens, []uint64{cls[c].seed(0)}, 1, 1, nil)
		if err != nil {
			return fmt.Errorf("storing client %d's first cell: %w", c, err)
		}
		res := rep.Results[0]
		cls[c].seen[fmt.Sprintf("%s@%d", res.Scenario, res.Seed)] = res.FingerprintSHA256
		return nil
	}
	for c := range cls {
		if err := store(c); err != nil {
			t.Fatal(err)
		}
	}

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	for r := 0; r < rounds; r++ {
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c, cl := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k, req := range cl.requests(r) {
					if err := cl.postCampaign(client, ts.URL, req); err != nil {
						errs[c] = fmt.Errorf("client %d round %d submission %d (%v %v): %w", c, r, k, req.Presets, req.Seeds, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
}
