// Package core implements the paper's primary contribution: delegation
// graphs and transitive trust analysis. From a crawl's streamed walk
// results it builds the zone-level dependency graph, computes each name's
// trusted computing base (TCB) — the transitive closure of every
// nameserver that could participate in resolving the name — and
// materializes per-name server-level delegation digraphs for bottleneck
// (min-cut) analysis and Figure-1-style visualization.
//
// Closures are computed once per *zone*, not per name: the zone dependency
// digraph is condensed with Tarjan's SCC algorithm (cross-domain NS cycles
// are real in DNS) and server sets are unioned bottom-up over the
// condensation DAG. Delegation chains are interned too: every distinct
// chain appears once as a compact zone-id list, names reference chains by
// id, and the TCB of each chain is unioned exactly once — a survey of half
// a million names touches each zone closure and each chain once.
//
// Graphs produced by one Builder share a copy-on-write epoch store:
// holding many generations of a monitored survey live costs array
// headers per generation, not full table clones, and every per-chain
// result carries the epoch at which it last changed — the stamp the
// timeline diff uses to skip unchanged chains in O(1).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"dnstrust/internal/dnsname"
)

// Graph is the zone-level dependency structure extracted from a crawl at
// one committed epoch. Build one incrementally with a Builder; it is
// immutable (and safe for concurrent use) afterwards — later epochs of
// the same builder share its storage copy-on-write instead of mutating
// it. Accessors deliberately share the append-only interned tables
// instead of copying (shared-returns).
//
//lint:immutable shared-returns
type Graph struct {
	// st is the shared epoch store; epoch selects which writes are
	// visible to this graph.
	st    *store
	epoch int64

	// Pinned append-only array headers: lock-free reads, content below
	// the pinned length never changes.
	hosts  []string
	zones  []string
	chains [][]int32
	zoneNS [][]int32

	numNames int

	// closure[z] is the sorted set of host ids transitively reachable
	// from zone z (z's NS hosts, their chains' NS hosts, and so on).
	closure [][]int32
	// zoneAdj[z] lists the zones z depends on (the chains of its NS
	// hosts), deduplicated.
	zoneAdj [][]int32
	// chainTCB[c] is the sorted host-id union of the closures of every
	// zone on chain c — the TCB shared by every name on that chain.
	chainTCB [][]int32
	// chainStamp[c] is the epoch at which chain c's dependency structure
	// (its TCB, or the address chain of any TCB member) last changed.
	// Inner slices of all three tables alias the previous epoch's when
	// unchanged, so retained generations share almost everything.
	chainStamp []int64

	// names is the sorted surveyed-name list and nameCIDs its aligned
	// chain-id column, filled together once per graph.
	namesOnce sync.Once
	names     []string
	nameCIDs  []int32
}

// Epoch reports the builder epoch this graph was finalized at (1 for the
// first FinishEpoch or a one-shot Finish, increasing per epoch).
func (g *Graph) Epoch() int64 { return g.epoch }

// SharesStore reports whether two graphs are epochs of the same builder,
// i.e. share one copy-on-write store. Same-store graphs with ordered
// epochs can be diffed incrementally off interned ids; foreign graphs
// must be compared by name.
func (g *Graph) SharesStore(o *Graph) bool { return o != nil && g.st == o.st }

// NumZones reports the number of zones in the graph (root excluded).
func (g *Graph) NumZones() int { return len(g.zones) }

// NumHosts reports the number of distinct nameserver hosts.
func (g *Graph) NumHosts() int { return len(g.hosts) }

// NumChains reports the number of distinct interned delegation chains.
func (g *Graph) NumChains() int { return len(g.chains) }

// NumNames reports the number of surveyed names in the graph.
func (g *Graph) NumNames() int { return g.numNames }

// Hosts returns all nameserver host names; the slice is shared, do not
// modify.
func (g *Graph) Hosts() []string { return g.hosts }

// Host returns the host name for an interned id.
func (g *Graph) Host(id int32) string { return g.hosts[id] }

// HostID returns the interned id of host and whether it exists.
func (g *Graph) HostID(host string) (int32, bool) {
	g.st.mu.RLock()
	id, ok := g.st.hostID[dnsname.Canonical(host)]
	g.st.mu.RUnlock()
	if !ok || int(id) >= len(g.hosts) {
		return 0, false
	}
	return id, true
}

// zoneIDOf resolves a canonical apex to a zone id visible at this epoch.
func (g *Graph) zoneIDOf(apex string) (int32, bool) {
	g.st.mu.RLock()
	id, ok := g.st.zoneID[apex]
	g.st.mu.RUnlock()
	if !ok || int(id) >= len(g.zones) {
		return 0, false
	}
	return id, true
}

// nameVersion resolves a canonical name to its chain mapping at this
// epoch; ok is false when the name is absent (never surveyed, surveyed
// later than this epoch, or failed by this epoch).
func (g *Graph) nameVersion(name string) (int32, bool) {
	g.st.mu.RLock()
	cid, ok := g.nameAtLocked(name)
	g.st.mu.RUnlock()
	return cid, ok
}

// nameAtLocked is nameVersion with the store lock held by the caller. A
// name lives in exactly one of the two tables: the versioned table when
// it was ever touched after the first live epoch, the compact base
// table otherwise (base entries are visible to every published epoch).
func (g *Graph) nameAtLocked(name string) (int32, bool) {
	if vs, ok := g.st.names[name]; ok {
		v, ok := vs.at(g.epoch)
		if !ok || !v.present {
			return 0, false
		}
		return v.cid, true
	}
	if cid, ok := g.st.base[name]; ok {
		return cid, true
	}
	return 0, false
}

// hostChainOfLocked returns host h's address chain as visible at this
// epoch (nil while unattached). Callers hold st.mu.
func (g *Graph) hostChainOfLocked(h int32) []int32 {
	if at := g.st.hostChainAt[h]; at == 0 || at > g.epoch {
		return nil
	}
	return g.st.hostChain[h]
}

// hostChainOf is hostChainOfLocked with its own lock.
func (g *Graph) hostChainOf(h int32) []int32 {
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	return g.hostChainOfLocked(h)
}

// Zones returns all zone apexes; the slice is shared, do not modify.
func (g *Graph) Zones() []string { return g.zones }

// Zone returns the zone apex for an interned id.
func (g *Graph) Zone(id int32) string { return g.zones[id] }

// ZoneNS returns the NS host ids of a zone apex.
func (g *Graph) ZoneNS(apex string) []int32 {
	id, ok := g.zoneIDOf(dnsname.Canonical(apex))
	if !ok {
		return nil
	}
	return g.zoneNS[id]
}

// ZoneNSIDs returns the NS host ids of an interned zone id; the slice is
// shared, do not modify.
func (g *Graph) ZoneNSIDs(z int32) []int32 { return g.zoneNS[z] }

// HostChainIDs returns the zone ids on an interned host's address chain;
// the slice is shared, do not modify.
func (g *Graph) HostChainIDs(h int32) []int32 { return g.hostChainOf(h) }

// HostChainZones returns the zone apexes on host's address chain.
func (g *Graph) HostChainZones(host string) []string {
	id, ok := g.HostID(host)
	if !ok {
		return nil
	}
	chain := g.hostChainOf(id)
	out := make([]string, 0, len(chain))
	for _, zid := range chain {
		out = append(out, g.zones[zid])
	}
	return out
}

// Names returns the surveyed names in sorted order. The slice is
// computed once per graph and shared; do not modify.
func (g *Graph) Names() []string { return g.NamesFrom(nil) }

// NameChainIDs returns the chain-id column aligned with Names:
// NameChainIDs()[i] is NameChainID(Names()[i]). It is filled with the
// name list, so a whole-survey pass reads each name's chain without a
// store lookup. The slice is shared; do not modify.
func (g *Graph) NameChainIDs() []int32 {
	g.NamesFrom(nil)
	return g.nameCIDs
}

// NamesFrom is Names given an older epoch of the same store whose name
// list is already known: instead of collecting and sorting the whole name
// table it merges older's list and chain-id column with the change
// journal between the two epochs — O(names) copies plus one lookup per
// touched name, and older's own slices when nothing was touched. Without
// a usable older epoch (nil, foreign store, pruned journal) it is exactly
// Names.
func (g *Graph) NamesFrom(older *Graph) []string {
	g.namesOnce.Do(func() {
		var base []string
		var baseIDs []int32
		if g.SharesStore(older) && older.epoch <= g.epoch {
			base, baseIDs = older.Names(), older.NameChainIDs()
		} else {
			older = nil
		}
		g.st.mu.RLock()
		defer g.st.mu.RUnlock()
		if older != nil && older.epoch >= g.st.journalFloor {
			g.names, g.nameCIDs = g.mergeNamesLocked(base, baseIDs, older.epoch)
			return
		}
		g.names, g.nameCIDs = g.collectNamesLocked()
	})
	return g.names
}

// collectNamesLocked gathers every name present at g's epoch with its
// chain id, sorted by name in one pass over (name, id) pairs. Callers
// hold st.mu.
func (g *Graph) collectNamesLocked() ([]string, []int32) {
	type nameCID struct {
		name string
		cid  int32
	}
	pairs := make([]nameCID, 0, g.numNames)
	for name, cid := range g.st.base {
		pairs = append(pairs, nameCID{name, cid})
	}
	for name, vs := range g.st.names {
		if v, ok := vs.at(g.epoch); ok && v.present {
			pairs = append(pairs, nameCID{name, v.cid})
		}
	}
	slices.SortFunc(pairs, func(a, b nameCID) int { return strings.Compare(a.name, b.name) })
	names := make([]string, len(pairs))
	ids := make([]int32, len(pairs))
	for i, p := range pairs {
		names[i], ids[i] = p.name, p.cid
	}
	return names, ids
}

// mergeNamesLocked applies the journal of the epochs after since to
// base, the sorted name list at since, and baseIDs, its chain-id column:
// a touched name is in the result exactly when it is present at g's
// epoch, with the chain it maps to there; every other name keeps its
// entry. Callers hold st.mu.
func (g *Graph) mergeNamesLocked(base []string, baseIDs []int32, since int64) ([]string, []int32) {
	var touched []string
	for e := since + 1; e <= g.epoch; e++ {
		touched = append(touched, g.st.touched[e]...)
	}
	if len(touched) == 0 {
		return base, baseIDs
	}
	sort.Strings(touched)
	out := make([]string, 0, g.numNames)
	ids := make([]int32, 0, g.numNames)
	i := 0
	for j, n := range touched {
		if j > 0 && n == touched[j-1] {
			continue
		}
		k := i
		for i < len(base) && base[i] < n {
			i++
		}
		out = append(out, base[k:i]...)
		ids = append(ids, baseIDs[k:i]...)
		if i < len(base) && base[i] == n {
			i++
		}
		if cid, ok := g.nameAtLocked(n); ok {
			out = append(out, n)
			ids = append(ids, cid)
		}
	}
	return append(out, base[i:]...), append(ids, baseIDs[i:]...)
}

// NameChainID returns the interned chain id of a surveyed name and
// whether the name is in the survey. Names sharing a delegation chain
// share a chain id, so per-chain analysis results (TCBs, min-cuts) can be
// memoized by id instead of re-joining zone strings.
func (g *Graph) NameChainID(name string) (int32, bool) {
	return g.nameVersion(dnsname.Canonical(name))
}

// ChainZoneIDs returns the zone ids of an interned chain, TLD-first; the
// slice is shared, do not modify.
func (g *Graph) ChainZoneIDs(cid int32) []int32 { return g.chains[cid] }

// ChainTCBIDs returns the sorted host ids of the TCB shared by every name
// on the interned chain; the slice is shared, do not modify.
func (g *Graph) ChainTCBIDs(cid int32) []int32 { return g.chainTCB[cid] }

// ChainStamp reports the epoch at which the chain's dependency structure
// last changed: its TCB set, or the address chain of a TCB member (which
// can reshape the min-cut digraph without changing the TCB set). A chain
// whose stamp is at or below an older same-store epoch is structurally
// identical in both epochs.
func (g *Graph) ChainStamp(cid int32) int64 { return g.chainStamp[cid] }

// ChainsChangedSince returns the interned chain ids whose dependency
// structure changed after the given epoch, in id order. With epoch equal
// to an older same-store graph's Epoch, the result is exactly the set of
// chains a timeline diff must examine — everything else diffs to nothing
// in O(1).
func (g *Graph) ChainsChangedSince(epoch int64) []int32 {
	var out []int32
	for ci, st := range g.chainStamp {
		if st > epoch {
			out = append(out, int32(ci))
		}
	}
	return out
}

// NamesTouchedSince returns, sorted and deduplicated, the names whose
// chain mapping changed after the given epoch (completed, failed, or
// re-chained) — the per-epoch journal kept by the builder, so a small
// Add's touched set is read without scanning the name table.
func (g *Graph) NamesTouchedSince(epoch int64) []string {
	var out []string
	g.st.mu.RLock()
	for e := epoch + 1; e <= g.epoch; e++ {
		out = append(out, g.st.touched[e]...)
	}
	g.st.mu.RUnlock()
	if len(out) == 0 {
		return nil
	}
	sort.Strings(out)
	dst := out[:1]
	for _, n := range out[1:] {
		if n != dst[len(dst)-1] {
			dst = append(dst, n)
		}
	}
	return dst
}

// JournalComplete reports whether the per-epoch change journal is
// intact for every epoch after the given one, i.e. whether an
// incremental diff from that epoch is possible. Journals below the
// pruned floor are gone (Builder.PruneJournal); a diff from an evicted
// generation falls back to the by-name path instead.
func (g *Graph) JournalComplete(since int64) bool {
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	return since >= g.st.journalFloor
}

// ChainLive reports whether at least one surveyed name maps to the
// interned chain at this epoch — NamesOnChain's emptiness test without
// materializing or sorting the name list (stops at the first live hit).
func (g *Graph) ChainLive(cid int32) bool {
	if int(cid) >= len(g.chains) {
		return false
	}
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	for _, n := range g.st.chainNames[cid] {
		if c, ok := g.nameAtLocked(n); ok && c == cid {
			return true
		}
	}
	return false
}

// NamesOnChain returns, sorted, the surveyed names mapped to the interned
// chain at this epoch.
func (g *Graph) NamesOnChain(cid int32) []string {
	if int(cid) >= len(g.chains) {
		return nil
	}
	g.st.mu.RLock()
	cand := g.st.chainNames[cid]
	out := make([]string, 0, len(cand))
	for _, n := range cand {
		if c, ok := g.nameAtLocked(n); ok && c == cid {
			out = append(out, n)
		}
	}
	g.st.mu.RUnlock()
	sort.Strings(out)
	dst := out[:0]
	for i, n := range out {
		if i == 0 || n != out[i-1] {
			dst = append(dst, n)
		}
	}
	return dst
}

// NameChainZones returns the zone apexes on a surveyed name's chain.
func (g *Graph) NameChainZones(name string) []string {
	cid, ok := g.NameChainID(name)
	if !ok {
		return nil
	}
	chain := g.chains[cid]
	out := make([]string, 0, len(chain))
	for _, zid := range chain {
		out = append(out, g.zones[zid])
	}
	return out
}

// Detach materializes a store-independent copy of this epoch: cloned
// intern maps, flattened name versions, and deep-copied (but still
// internally aliased) closure/TCB tables. A detached graph answers every
// query identically but shares nothing mutable with the builder — it is
// also the "pin a full epoch" baseline the retention benchmarks compare
// the copy-on-write store against.
func (g *Graph) Detach() *Graph {
	src := g.st
	src.mu.RLock()
	defer src.mu.RUnlock()

	st := newStore(g.numNames)
	st.hosts = g.hosts
	st.zones = g.zones
	st.chains = g.chains
	st.zoneNS = g.zoneNS
	for h, id := range src.hostID {
		if int(id) < len(g.hosts) {
			st.hostID[h] = id
		}
	}
	for z, id := range src.zoneID {
		if int(id) < len(g.zones) {
			st.zoneID[z] = id
		}
	}
	st.hostChain = make([][]int32, len(g.hosts))
	st.hostChainAt = make([]int64, len(g.hosts))
	for h := range st.hostChain {
		if c := g.hostChainOfLocked(int32(h)); c != nil {
			st.hostChain[h] = append([]int32(nil), c...)
			st.hostChainAt[h] = src.hostChainAt[h]
		}
	}
	st.baseEpoch = src.baseEpoch
	for name, cid := range src.base {
		st.base[name] = cid
	}
	st.chainNames = make([][]string, len(g.chains))
	for name, cid := range st.base {
		st.chainNames[cid] = append(st.chainNames[cid], name)
	}
	for name, vs := range src.names {
		if v, ok := vs.at(g.epoch); ok {
			st.names[name] = nameVers{v0: v}
			if v.present {
				st.chainNames[v.cid] = append(st.chainNames[v.cid], name)
			}
		}
	}

	return &Graph{
		st:         st,
		epoch:      g.epoch,
		hosts:      g.hosts,
		zones:      g.zones,
		chains:     g.chains,
		zoneNS:     g.zoneNS,
		numNames:   g.numNames,
		closure:    copyAliased(g.closure),
		zoneAdj:    copyAliased(g.zoneAdj),
		chainTCB:   copyAliased(g.chainTCB),
		chainStamp: append([]int64(nil), g.chainStamp...),
	}
}

// emptyGraph is the graph of an epoch finalized before the live store
// has any content, backed by its own empty store.
func emptyGraph(epoch int64) *Graph {
	g := &Graph{st: newStore(0), epoch: epoch}
	g.computeTables(nil, nil, nil)
	return g
}

// computeTables fills the epoch's derived tables — closure, zoneAdj,
// chainTCB, chainStamp — from prev, the previous epoch of the same store
// (nil: everything is new). hostChain is the builder's current chain
// table (every attach is visible to the epoch being finalized) and
// lateAttached its undrained late set.
func (g *Graph) computeTables(prev *Graph, hostChain [][]int32, lateAttached map[int32]struct{}) {
	if prev == nil {
		prev = &Graph{}
	}
	var late []bool
	if len(lateAttached) > 0 {
		late = make([]bool, len(prev.hosts))
		for h := range lateAttached {
			late[h] = true
		}
	}
	g.computeChainTCBs(prev, late, g.computeClosures(prev, hostChain, late))
}

// computeClosures condenses the dirty part of the zone dependency digraph
// with Tarjan's algorithm and unions server sets bottom-up over its
// condensation DAG (FinishEpoch argues why only the dirty zones can
// change). Edges leaving the dirty set are terminals whose closure is
// already final, and no SCC straddles the boundary: a clean zone on a
// cycle through a dirty one would reach what it reaches. It returns the
// dirty bitmap when any zone of prev is dirty — chains of prev may then
// need re-unioning — else nil.
func (g *Graph) computeClosures(prev *Graph, hostChain [][]int32, late []bool) []bool {
	n, pz := len(g.zones), len(prev.zones)
	dirty := make([]bool, n)
	var work []int32
	if late != nil {
		work = prev.zonesReachingLate(late, dirty)
	}
	prevDirty := len(work) > 0
	g.closure = extend(prev.closure, n, prevDirty)
	g.zoneAdj = extend(prev.zoneAdj, n, prevDirty)
	for z := pz; z < n; z++ {
		dirty[z] = true
		work = append(work, int32(z))
	}
	adj := g.zoneAdj
	for _, z := range work {
		var deps []int32
		for _, h := range g.zoneNS[z] {
			deps = append(deps, hostChain[h]...)
		}
		sortUnique(&deps)
		if int(z) < pz && int32sEqual(prev.zoneAdj[z], deps) {
			deps = prev.zoneAdj[z]
		}
		adj[z] = deps
	}

	// Iterative Tarjan SCC over the dirty zones. State is dense over all
	// zones (zero means unvisited / still open), so the everything-is-new
	// first epoch pays no map overhead.
	index := make([]int32, n) // 1-based discovery order
	low := make([]int32, n)
	comp := make([]int32, n) // root zone id + 1 of the zone's finished SCC
	mark := make([]int32, n) // mark[k] == v+1: k's closure is already in SCC v's set
	type frame struct {
		v    int32
		edge int
	}
	var stack []int32
	var callStack []frame
	var next int32
	for _, start := range work {
		if index[start] != 0 {
			continue
		}
		next++
		index[start], low[start] = next, next
		stack = append(stack, start)
		callStack = append(callStack[:0], frame{v: start})
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.edge < len(adj[f.v]) {
				w := adj[f.v][f.edge]
				f.edge++
				if !dirty[w] {
					continue
				}
				if index[w] == 0 {
					next++
					index[w], low[w] = next, next
					stack = append(stack, w)
					callStack = append(callStack, frame{v: w})
				} else if comp[w] == 0 && low[f.v] > index[w] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				if p := callStack[len(callStack)-1].v; low[p] > low[v] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v roots an SCC: its members are the stack above v. Tarjan
			// finishes SCCs in reverse topological order, so every edge
			// leaving the SCC ends at a closure that is already final.
			top := len(stack) - 1
			for ; stack[top] != v; top-- {
				comp[stack[top]] = v + 1
			}
			comp[v] = v + 1
			members := stack[top:]
			var set []int32
			for _, z := range members {
				set = append(set, g.zoneNS[z]...)
				for _, w := range adj[z] {
					key := w
					if dirty[w] {
						if comp[w] == v+1 {
							continue
						}
						key = comp[w] - 1
					}
					if mark[key] != v+1 {
						mark[key] = v + 1
						set = append(set, g.closure[w]...)
					}
				}
			}
			sortUnique(&set)
			if int(v) < pz && int32sEqual(prev.closure[v], set) {
				set = prev.closure[v]
			}
			for _, z := range members {
				g.closure[z] = set
			}
			stack = stack[:top]
		}
	}
	if !prevDirty {
		return nil
	}
	return dirty
}

// zonesReachingLate marks in dirty, and returns, every zone of g that is
// or reaches a zone with an NS host in late. The reverse adjacency it
// walks is derived here on demand, so only epochs with a late attach pay
// for it and nothing extra is kept (or snapshotted) between epochs.
func (g *Graph) zonesReachingLate(late []bool, dirty []bool) []int32 {
	var work []int32
	for z, ns := range g.zoneNS {
		if anyMarked(ns, late) {
			dirty[z] = true
			work = append(work, int32(z))
		}
	}
	if len(work) == 0 {
		return nil
	}
	n := len(g.zones)
	off := make([]int32, n+1) // rev[off[w]:off[w+1]] lists the zones depending on w
	for _, deps := range g.zoneAdj {
		for _, w := range deps {
			off[w+1]++
		}
	}
	for w := 0; w < n; w++ {
		off[w+1] += off[w]
	}
	rev := make([]int32, off[n])
	fill := append([]int32(nil), off[:n]...)
	for z, deps := range g.zoneAdj {
		for _, w := range deps {
			rev[fill[w]] = int32(z)
			fill[w]++
		}
	}
	for i := 0; i < len(work); i++ {
		w := work[i]
		for _, z := range rev[off[w]:off[w+1]] {
			if !dirty[z] {
				dirty[z] = true
				work = append(work, z)
			}
		}
	}
	return work
}

// computeChainTCBs unions zone closures into one TCB per interned chain.
// Every name on the chain shares the resulting slice, so the per-name
// Figure 2/5/6 passes become O(1) lookups. Only new chains, and chains of
// prev traversing a dirty zone, are unioned; the rest alias prev's TCB and
// keep its stamp. A re-unioned TCB equal to prev's aliases it too, and
// each chain's stamp records the epoch it last changed — unchanged
// meaning both an identical TCB set and no TCB member whose address chain
// attached late this epoch (a late attach reshapes the min-cut digraph
// even when the TCB set is stable).
func (g *Graph) computeChainTCBs(prev *Graph, late []bool, dirty []bool) {
	nc, pc := len(g.chains), len(prev.chains)
	g.chainTCB = extend(prev.chainTCB, nc, dirty != nil)
	g.chainStamp = extend(prev.chainStamp, nc, dirty != nil)
	first := pc
	if dirty != nil {
		first = 0
	}
	for ci := first; ci < nc; ci++ {
		chain := g.chains[ci]
		if ci < pc && !anyMarked(chain, dirty) {
			continue
		}
		var tcb []int32
		for _, z := range chain {
			tcb = append(tcb, g.closure[z]...)
		}
		sortUnique(&tcb)
		if ci < pc && int32sEqual(prev.chainTCB[ci], tcb) {
			if anyMarked(tcb, late) {
				g.chainStamp[ci] = g.epoch
			}
			continue
		}
		g.chainTCB[ci] = tcb
		g.chainStamp[ci] = g.epoch
	}
}

// extend returns prev's table grown to n entries, the new ones zero. An
// epoch that rewrites entries of prev gets its own copy. One that only
// adds appends into prev's spare capacity instead, exactly as the store's
// intern arrays grow: prev's readers never look past its pinned length,
// so the epoch costs O(added) amortized rather than O(n).
func extend[T any](prev []T, n int, rewrites bool) []T {
	if rewrites {
		return append(make([]T, 0, n), prev...)[:n]
	}
	return append(prev, make([]T, n-len(prev))...)
}

// anyMarked reports whether any id is set in the bitmap (nil: none are).
func anyMarked(ids []int32, set []bool) bool {
	if set == nil {
		return false
	}
	for _, id := range ids {
		if set[id] {
			return true
		}
	}
	return false
}

// ZoneClosure returns the sorted host ids transitively reachable from a
// zone apex (its full server dependency set).
func (g *Graph) ZoneClosure(apex string) []int32 {
	id, ok := g.zoneIDOf(dnsname.Canonical(apex))
	if !ok {
		return nil
	}
	return g.closure[id]
}

// TCBIDs returns the sorted host ids of name's trusted computing base:
// the union of the closures of every zone on its delegation chain. Root
// servers are excluded (chains never include the root). The slice is
// shared with every name on the same chain; do not modify.
func (g *Graph) TCBIDs(name string) ([]int32, error) {
	cid, ok := g.NameChainID(name)
	if !ok {
		return nil, fmt.Errorf("core: name %q not in survey", name)
	}
	return g.chainTCB[cid], nil
}

// TCB returns the host names of name's trusted computing base, sorted.
func (g *Graph) TCB(name string) ([]string, error) {
	ids, err := g.TCBIDs(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.hosts[id])
	}
	sort.Strings(out)
	return out, nil
}

// TCBSize returns |TCB(name)|, or -1 for unknown names.
func (g *Graph) TCBSize(name string) int {
	ids, err := g.TCBIDs(name)
	if err != nil {
		return -1
	}
	return len(ids)
}

// DirectNS returns the nameserver hosts of name's authoritative zone —
// the servers the name's owner directly chose and trusts (the paper's
// "only 2.2 servers are administered by the nameowner"; everything else
// in the TCB is transitive).
func (g *Graph) DirectNS(name string) ([]string, error) {
	cid, ok := g.NameChainID(name)
	if !ok || len(g.chains[cid]) == 0 {
		return nil, fmt.Errorf("core: name %q not in survey", name)
	}
	chain := g.chains[cid]
	az := chain[len(chain)-1]
	out := make([]string, 0, len(g.zoneNS[az]))
	for _, id := range g.zoneNS[az] {
		out = append(out, g.hosts[id])
	}
	sort.Strings(out)
	return out, nil
}

// OwnedServers splits name's TCB into servers administered by the name's
// owner (same registered domain) and external servers — the paper's
// "only 2.2 servers are administered by the nameowner on average".
func (g *Graph) OwnedServers(name string) (owned, external []string, err error) {
	tcb, err := g.TCB(name)
	if err != nil {
		return nil, nil, err
	}
	rd, rdErr := dnsname.RegisteredDomain(name)
	for _, h := range tcb {
		hrd, err2 := dnsname.RegisteredDomain(h)
		if rdErr == nil && err2 == nil && hrd == rd {
			owned = append(owned, h)
		} else {
			external = append(external, h)
		}
	}
	return owned, external, nil
}

// sortUnique sorts and deduplicates a slice of ids in place.
func sortUnique(ids *[]int32) {
	s := *ids
	if len(s) < 2 {
		return
	}
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	*ids = out
}
