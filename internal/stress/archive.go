package stress

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"uniserver/internal/cpu"
	"uniserver/internal/rng"
)

// ArchiveEntry is one stored virus: the genome that produced it, the
// objective it was evolved for, and the fitness it achieved on the
// machine it was evolved against.
type ArchiveEntry struct {
	Name      string    `json:"name"`
	Objective Objective `json:"objective"`
	Genome    Genome    `json:"genome"`
	Fitness   float64   `json:"fitness"`
	Machine   string    `json:"machine"`
}

// Archive is the StressLog's persistent virus library: evolving a
// virus costs thousands of sweeps, so campaigns re-use archived
// genomes and only re-evolve when the archive has nothing for the
// target machine/objective (the AUDIT workflow the paper cites also
// archives its generated stress tests).
type Archive struct {
	entries map[string]ArchiveEntry // keyed by Name
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{entries: make(map[string]ArchiveEntry)}
}

// Put stores or replaces an entry. Entries must be named.
func (a *Archive) Put(e ArchiveEntry) error {
	if e.Name == "" {
		return errors.New("stress: archive entry needs a name")
	}
	a.entries[e.Name] = e
	return nil
}

// Replace replaces a's entries with entries (Entries' form), reusing
// a's map storage. Entries are plain values (genomes carry no reference
// types), so a shares nothing with the slice afterwards. A zero Archive
// is a valid destination.
func (a *Archive) Replace(entries []ArchiveEntry) {
	if a.entries == nil {
		a.entries = make(map[string]ArchiveEntry, len(entries))
	} else {
		clear(a.entries)
	}
	for _, e := range entries {
		a.entries[e.Name] = e
	}
}

// Len returns the number of archived viruses.
func (a *Archive) Len() int { return len(a.entries) }

// Best returns the highest-fitness entry for the machine/objective
// pair, if any.
func (a *Archive) Best(machine string, obj Objective) (ArchiveEntry, bool) {
	var best ArchiveEntry
	found := false
	for _, e := range a.entries {
		if e.Machine != machine || e.Objective != obj {
			continue
		}
		if !found || e.Fitness > best.Fitness {
			best, found = e, true
		}
	}
	return best, found
}

// Entries returns all entries sorted by name.
func (a *Archive) Entries() []ArchiveEntry {
	out := make([]ArchiveEntry, 0, len(a.entries))
	for _, e := range a.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// archiveJSON is the wire format.
type archiveJSON struct {
	Version int            `json:"version"`
	Entries []ArchiveEntry `json:"entries"`
}

const archiveVersion = 1

// Save writes the archive as JSON.
func (a *Archive) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(archiveJSON{Version: archiveVersion, Entries: a.Entries()}); err != nil {
		return fmt.Errorf("stress: saving archive: %w", err)
	}
	return nil
}

// LoadArchive reads an archive written by Save.
func LoadArchive(r io.Reader) (*Archive, error) {
	var in archiveJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("stress: loading archive: %w", err)
	}
	if in.Version != archiveVersion {
		return nil, fmt.Errorf("stress: unsupported archive version %d", in.Version)
	}
	a := NewArchive()
	for _, e := range in.Entries {
		if err := a.Put(e); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// ObtainVirus returns a virus for the machine/objective pair: the best
// archived genome when one exists (expressed without any evolution
// cost), otherwise it evolves a fresh one against the machine and
// archives it for the next campaign.
func ObtainVirus(a *Archive, cfg GAConfig, obj Objective, m *cpu.Machine, core int, src *rng.Source) (cpu.Benchmark, error) {
	if a == nil {
		return cpu.Benchmark{}, errors.New("stress: nil archive")
	}
	if e, ok := a.Best(m.Spec.Model, obj); ok {
		return e.Genome.Express(e.Name), nil
	}
	res, err := Evolve(cfg, obj, m, core, src)
	if err != nil {
		return cpu.Benchmark{}, err
	}
	entry := ArchiveEntry{
		Name:      fmt.Sprintf("%s-%s", m.Spec.Model, obj),
		Objective: obj,
		Genome:    res.Best,
		Fitness:   res.Fitness,
		Machine:   m.Spec.Model,
	}
	if err := a.Put(entry); err != nil {
		return cpu.Benchmark{}, err
	}
	return res.Virus, nil
}
