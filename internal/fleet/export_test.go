package fleet

// CharactKeys returns a resolver for the characterization identities
// fleet.Run derives for cfg's nodes — the bin, the per-node cache key
// and the archetype cache key of node i — through the same per-run
// memo Run uses.
func CharactKeys(cfg Config, wantLog bool) func(i int) (bin, nodeKey, archKey string) {
	m := newBinMemo(cfg.Seed, wantLog)
	return func(i int) (string, string, string) {
		spec := cfg.nodeSpec(i)
		b := m.lookup(spec)
		return b.bin, m.nodeKey(NodeSeed(cfg.Seed, i), spec), b.archKey
	}
}
