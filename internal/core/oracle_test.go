package core

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"testing"

	"dnstrust/internal/dnsname"
)

// This file keeps two constructions the production code replaced, as the
// oracles their replacements are compared against: the whole-graph
// closure/TCB pass — every zone through Tarjan, every closure and every
// chain TCB re-unioned and re-sorted each epoch — for the incremental
// pass in graph.go, and the map-and-string per-name digraph for the flat
// Digraph.Fill. They exist only in tests.

// finishChecked runs b.FinishEpoch and asserts that closure, zoneAdj,
// chainTCB and chainStamp equal what the whole-graph pass derives from
// the same store state, previous epoch and late set.
func finishChecked(t testing.TB, b *Builder) *Graph {
	t.Helper()
	prev, late := b.prev, maps.Clone(b.lateAttached)
	g := b.FinishEpoch()
	if g.st != b.st {
		return g // pre-crawl epoch on its own empty store
	}
	want := &Graph{st: g.st, epoch: g.epoch, hosts: g.hosts, zones: g.zones, chains: g.chains, zoneNS: g.zoneNS}
	want.oracleClosures(prev, b.st.hostChain)
	want.oracleChainTCBs(prev, late)
	for z := range g.zones {
		if !int32sEqual(g.closure[z], want.closure[z]) {
			t.Fatalf("epoch %d: closure[%d] = %v, whole-graph pass has %v", g.epoch, z, g.closure[z], want.closure[z])
		}
		if !int32sEqual(g.zoneAdj[z], want.zoneAdj[z]) {
			t.Fatalf("epoch %d: zoneAdj[%d] = %v, whole-graph pass has %v", g.epoch, z, g.zoneAdj[z], want.zoneAdj[z])
		}
	}
	for c := range g.chains {
		if !int32sEqual(g.chainTCB[c], want.chainTCB[c]) {
			t.Fatalf("epoch %d: chainTCB[%d] = %v, whole-graph pass has %v", g.epoch, c, g.chainTCB[c], want.chainTCB[c])
		}
		if g.chainStamp[c] != want.chainStamp[c] {
			t.Fatalf("epoch %d: chainStamp[%d] = %d, whole-graph pass has %d", g.epoch, c, g.chainStamp[c], want.chainStamp[c])
		}
	}
	return g
}

// oracleClosures is the whole-graph closure pass FinishEpoch ran before it
// became incremental, kept verbatim as the reference: it condenses the
// zone dependency digraph with Tarjan's algorithm and unions server sets
// bottom-up over the condensation DAG.
// hostChain is the builder's current chain table (every attach is
// visible to the epoch being finalized). When prev is the previous
// epoch's graph, closure and adjacency slices equal to the previous
// epoch's alias them, so retained generations share storage.
func (g *Graph) oracleClosures(prev *Graph, hostChain [][]int32) {
	n := len(g.zones)
	g.closure = make([][]int32, n)
	if n == 0 {
		g.zoneAdj = make([][]int32, 0)
		return
	}

	zoneDeps := func(z int32) []int32 {
		var deps []int32
		for _, h := range g.zoneNS[z] {
			deps = append(deps, hostChain[h]...)
		}
		sortUnique(&deps)
		return deps
	}

	// Iterative Tarjan SCC.
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	adj := make([][]int32, n)
	for z := 0; z < n; z++ {
		adj[z] = zoneDeps(int32(z))
		if prev != nil && z < len(prev.zoneAdj) && int32sEqual(prev.zoneAdj[z], adj[z]) {
			adj[z] = prev.zoneAdj[z]
		}
	}
	g.zoneAdj = adj

	var stack []int32
	var sccCount int32
	var sccMembers [][]int32

	type frame struct {
		v    int32
		edge int
	}
	var next int32
	var callStack []frame
	for start := int32(0); start < int32(n); start++ {
		if index[start] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: start})
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.edge < len(adj[f.v]) {
				w := adj[f.v][f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && low[f.v] > index[w] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[p.v] > low[v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var members []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = sccCount
					members = append(members, w)
					if w == v {
						break
					}
				}
				sccMembers = append(sccMembers, members)
				sccCount++
			}
		}
	}

	// Tarjan emits SCCs in reverse topological order: successors of an
	// SCC always have smaller component ids, so one forward pass suffices.
	sccClosure := make([][]int32, sccCount)
	for c := int32(0); c < sccCount; c++ {
		var set []int32
		for _, z := range sccMembers[c] {
			set = append(set, g.zoneNS[z]...)
		}
		// Successor SCCs.
		succ := map[int32]bool{}
		for _, z := range sccMembers[c] {
			for _, w := range adj[z] {
				if comp[w] != c {
					succ[comp[w]] = true
				}
			}
		}
		for sc := range succ {
			set = append(set, sccClosure[sc]...)
		}
		sortUnique(&set)
		// Copy-on-write: when the set is unchanged from the previous
		// epoch, every member zone aliases the previous slice.
		if z0 := sccMembers[c][0]; prev != nil && int(z0) < len(prev.closure) && int32sEqual(prev.closure[z0], set) {
			set = prev.closure[z0]
		}
		sccClosure[c] = set
	}
	for z := 0; z < n; z++ {
		g.closure[z] = sccClosure[comp[int32(z)]]
	}
}

// oracleChainTCBs is the whole-graph TCB pass, kept verbatim: it unions
// zone closures into one TCB per interned chain.
// Every name on the chain shares the resulting slice, so the per-name
// Figure 2/5/6 passes become O(1) lookups. TCBs equal to the previous
// epoch's alias its slices, and each chain's stamp records the epoch it
// last changed — unchanged meaning both an identical TCB set and no TCB
// member whose address chain attached late this epoch (a late attach
// reshapes the min-cut digraph even when the TCB set is stable).
func (g *Graph) oracleChainTCBs(prev *Graph, late map[int32]struct{}) {
	g.chainTCB = make([][]int32, len(g.chains))
	g.chainStamp = make([]int64, len(g.chains))
	for ci, chain := range g.chains {
		var tcb []int32
		for _, z := range chain {
			tcb = append(tcb, g.closure[z]...)
		}
		sortUnique(&tcb)
		if prev != nil && ci < len(prev.chainTCB) && int32sEqual(prev.chainTCB[ci], tcb) {
			g.chainTCB[ci] = prev.chainTCB[ci]
			if tcbIntersects(prev.chainTCB[ci], late) {
				g.chainStamp[ci] = g.epoch
			} else {
				g.chainStamp[ci] = prev.chainStamp[ci]
			}
		} else {
			g.chainTCB[ci] = tcb
			g.chainStamp[ci] = g.epoch
		}
	}
}

// tcbIntersects reports whether any TCB member is in the late set.
func tcbIntersects(tcb []int32, late map[int32]struct{}) bool {
	if len(late) == 0 {
		return false
	}
	for _, h := range tcb {
		if _, ok := late[h]; ok {
			return true
		}
	}
	return false
}

// oracleDigraphT is the per-name digraph as Graph.Digraph returned it
// before Digraph became a flat, reusable value: nodes by host name, one
// adjacency slice per node.
type oracleDigraphT struct {
	Name         string
	Hosts        []string
	Source, Sink int
	Adj          [][]int
	hostIndex    map[string]int
}

func (d *oracleDigraphT) NumNodes() int { return len(d.Hosts) + 2 }

// oracleDigraph is the body of the former Graph.Digraph, kept verbatim as
// the reference for Digraph.Fill: three maps, a per-host target map and a
// sort, and a second name lookup inside ReachableZoneIDs.
func (g *Graph) oracleDigraph(name string) (*oracleDigraphT, error) {
	name = dnsname.Canonical(name)
	cid, ok := g.NameChainID(name)
	if !ok {
		return nil, fmt.Errorf("core: name %q not in survey", name)
	}
	chain := g.chains[cid]
	if len(chain) == 0 {
		return nil, fmt.Errorf("core: name %q has an empty delegation chain", name)
	}
	tcb := g.chainTCB[cid]

	// Materialize the TCB members' address chains at this epoch in one
	// locked pass (entries can attach in later epochs; the stamp check
	// hides those writes from this graph).
	memberChain := make(map[int32][]int32, len(tcb))
	g.st.mu.RLock()
	for _, hid := range tcb {
		memberChain[hid] = g.hostChainOfLocked(hid)
	}
	g.st.mu.RUnlock()

	d := &oracleDigraphT{Name: name, hostIndex: make(map[string]int, len(tcb))}
	local := make(map[int32]int, len(tcb))
	for _, hid := range tcb {
		idx := len(d.Hosts)
		local[hid] = idx
		d.Hosts = append(d.Hosts, g.hosts[hid])
		d.hostIndex[g.hosts[hid]] = idx
	}
	d.Source = len(d.Hosts)
	d.Sink = len(d.Hosts) + 1
	d.Adj = make([][]int, d.NumNodes())

	// Grounded hosts: servers of any TLD zone reachable here.
	grounded := map[int32]bool{}
	zoneIDs, err := g.ReachableZoneIDs(name)
	if err != nil {
		return nil, err
	}
	for _, z := range zoneIDs {
		if dnsname.CountLabels(g.zones[z]) == 1 {
			for _, h := range g.zoneNS[z] {
				grounded[h] = true
			}
		}
	}

	addEdge := func(from, to int) {
		d.Adj[from] = append(d.Adj[from], to)
	}

	// Source -> NS(authoritative zone of name).
	authZone := chain[len(chain)-1]
	for _, h := range g.zoneNS[authZone] {
		if idx, ok := local[h]; ok {
			addEdge(d.Source, idx)
		}
	}

	// Host edges.
	for _, hid := range tcb {
		from := local[hid]
		chain := memberChain[hid]
		// Glue waiver: in-bailiwick servers of their own zone are reached
		// through parent referral glue, so their own zone is not an
		// address dependency.
		if len(chain) > 0 {
			az := chain[len(chain)-1]
			for _, ns := range g.zoneNS[az] {
				if ns == hid {
					chain = chain[:len(chain)-1]
					break
				}
			}
		}
		if grounded[hid] || len(chain) == 0 {
			// TLD servers are root-glue-grounded; hosts with unknown
			// chains are grounded optimistically (the paper treats
			// unknowns optimistically throughout).
			addEdge(from, d.Sink)
			continue
		}
		targets := map[int]bool{}
		for _, z := range chain {
			for _, h2 := range g.zoneNS[z] {
				if idx, ok := local[h2]; ok && idx != from {
					targets[idx] = true
				}
			}
		}
		sorted := make([]int, 0, len(targets))
		for t := range targets {
			sorted = append(sorted, t)
		}
		sort.Ints(sorted)
		for _, t := range sorted {
			addEdge(from, t)
		}
	}
	return d, nil
}

// The two virtual nodes as DigraphLines names them; no host is called so.
const (
	SourceNode = "<source>"
	SinkNode   = "<sink>"
)

// DigraphLines renders a filled digraph by host name, one "node N" line
// per node and one "A -> B" line per edge, sorted: the form in which
// tests read a flat digraph and compare two of them as edge sets.
func DigraphLines(g *Graph, d *Digraph) []string {
	names := make([]string, 0, d.NumNodes())
	for _, h := range d.Hosts {
		names = append(names, g.hosts[h])
	}
	return edgeLines(names, func(v int) []int {
		var succ []int
		for _, w := range d.Succ(v) {
			succ = append(succ, int(w))
		}
		return succ
	})
}

// lines is DigraphLines for the reference digraph.
func (d *oracleDigraphT) lines() []string {
	return edgeLines(d.Hosts, func(v int) []int { return d.Adj[v] })
}

// edgeLines renders a digraph whose nodes are the named hosts followed
// by Source and Sink — the numbering both constructions use.
func edgeLines(hosts []string, succ func(v int) []int) []string {
	names := append(append([]string(nil), hosts...), SourceNode, SinkNode)
	var lines []string
	for v, from := range names {
		lines = append(lines, "node "+from)
		for _, w := range succ(v) {
			lines = append(lines, from+" -> "+names[w])
		}
	}
	sort.Strings(lines)
	return lines
}

// checkDigraphs asserts that Fill on the reused d yields, for each given
// chain with a live name at g's epoch, the node set and edge sets of the
// reference construction. It returns how many chains it compared.
func checkDigraphs(t testing.TB, g *Graph, d *Digraph, cids []int32) int {
	t.Helper()
	checked := 0
	for _, cid := range cids {
		names := g.NamesOnChain(cid)
		if len(names) == 0 {
			continue
		}
		want, wantErr := g.oracleDigraph(names[0])
		gotErr := d.Fill(g, cid)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("epoch %d chain %d (%s): Fill error %v, reference %v", g.epoch, cid, names[0], gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got, want := DigraphLines(g, d), want.lines(); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d chain %d (%s): digraph differs\nflat      %v\nreference %v", g.epoch, cid, names[0], got, want)
		}
		checked++
	}
	return checked
}

// allChains lists every chain id of g.
func allChains(g *Graph) []int32 {
	cids := make([]int32, g.NumChains())
	for i := range cids {
		cids[i] = int32(i)
	}
	return cids
}
