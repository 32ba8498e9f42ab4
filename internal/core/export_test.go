package core

// CollectNames is the map-based name collection NamesFrom(nil) falls
// back to: every name present at g's epoch with its chain id, read off
// the store's hash tables and sorted.
func CollectNames(g *Graph) ([]string, []int32) {
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	return g.collectNamesLocked()
}

// NextPropertySeed is the next seed of the seeded property tests, so
// -count=N runs N different streams in the external test package too.
func NextPropertySeed() int64 { return propertySeed.Add(1) }

// Indexed reports whether g's store has built its hash indexes (hostID,
// zoneID, base). A restored store builds them on first need; until then
// names are looked up in the file's sorted base table.
func Indexed(g *Graph) bool { return g.st.indexed.Load() }

// Index builds b's store's hash indexes now, as a restore did before
// they were built on first need.
func Index(b *Builder) { b.st.index() }
