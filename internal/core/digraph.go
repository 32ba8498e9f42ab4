package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dnstrust/internal/dnsname"
)

// Digraph is the server-level delegation digraph of the paper's Figure 1
// for one interned delegation chain, in the form consumed by the min-cut
// bottleneck analysis:
//
//   - node Source stands for the surveyed name (every name on the chain
//     has the same digraph);
//   - node Sink stands for the trust ground (the root, whose servers the
//     paper excludes and whose referral glue bootstraps all resolution);
//   - one node per nameserver host in the chain's TCB;
//   - Source points at the NS hosts of the chain's authoritative zone;
//   - a host points at every NS host of every zone its address depends on
//     (HostDepZoneIDs) — any of those servers could be involved in
//     resolving the host;
//   - hosts serving a top-level domain point at Sink: their addresses
//     come from root referral glue, the bootstrap every resolution uses.
//
// A directed path Source→…→Sink is a way resolution can reach ground; a
// vertex cut over host nodes is a server set whose compromise intercepts
// every such path — a complete hijack.
//
// A Digraph is a caller-owned value that Fill overwrites: one per worker
// serves every chain of a pass without allocating once its arrays have
// grown to the largest chain. Nodes and edges are interned ids in flat
// arrays, in whatever order the graph's tables yield them. No consumer
// may depend on that order, and none needs to: a minimum cut's size is a
// property of the edge set, and the cut the analysis reports — the
// members of the minimal source side of the residual graph — is the same
// for every maximum flow, so sorting edges here would buy nothing.
//
// Digraph classes. Fill reads a chain through three things only: its
// zones above the authoritative zone (the prefix), the authoritative
// zone's NS set, and whether that zone is a TLD. Chains equal in all
// three get byte-identical Hosts, Off and Adj, so one min-cut serves
// them all (DigraphClasses groups them). The argument: a zone's
// dependencies (zoneAdj) are the address chains of its NS hosts, so two
// authoritative zones a and b with one NS set depend on the same zones
// and close over the same hosts. The reachable zone sets of the two
// chains then differ at most in a and b themselves, which contribute
// the same hosts and, with one TLD bit, ground the same hosts. So the
// TCB, the grounded set, every host's edges (a property of the host,
// not the chain) and Source's edges (the NS set, in its stored order)
// are the same. Drop the prefix and chains under different TLDs merge;
// drop the TLD bit and a TLD merges with a root-delegated two-label
// zone served by the same hosts. Keying by TCB id is not enough either:
// two chains with one TCB can still differ in Source's edges.
type Digraph struct {
	// Hosts maps local node index -> interned host id: the chain's TCB,
	// sorted by id. It aliases the graph's table; do not modify.
	Hosts []int32
	// Off and Adj are the adjacency in CSR form over all nodes (hosts,
	// then Source, then Sink): node v's successors are
	// Adj[Off[v]:Off[v+1]].
	Off, Adj []int32

	// Fill's scratch. local maps host id -> local node + 1 and zoneSeen
	// marks visited zone ids; both span the whole graph and are all zero
	// between Fills. queue is the zone BFS, grounded and mark are per
	// local node (mark[w] == v+1: edge v->w is already written).
	local    []int32
	zoneSeen []bool
	queue    []int32
	grounded []bool
	mark     []int32
}

// ErrEmptyChain is Fill's error for a chain with no zones: there is no
// authoritative zone for Source to point at.
var ErrEmptyChain = errors.New("core: empty delegation chain")

// NumNodes returns the total node count including Source and Sink.
func (d *Digraph) NumNodes() int { return len(d.Hosts) + 2 }

// Source returns the virtual node standing for the surveyed name.
func (d *Digraph) Source() int { return len(d.Hosts) }

// Sink returns the virtual node standing for the trust ground.
func (d *Digraph) Sink() int { return len(d.Hosts) + 1 }

// Succ returns node v's successors; the slice aliases d.
func (d *Digraph) Succ(v int) []int32 { return d.Adj[d.Off[v]:d.Off[v+1]] }

// Fill overwrites d with the delegation digraph of interned chain cid at
// g's epoch, reusing d's arrays.
func (d *Digraph) Fill(g *Graph, cid int32) error {
	chain := g.chains[cid]
	if len(chain) == 0 {
		return ErrEmptyChain
	}
	tcb := g.chainTCB[cid]
	n := len(tcb)
	d.Hosts = tcb
	d.local = grown(d.local, len(g.hosts))
	d.zoneSeen = grown(d.zoneSeen, len(g.zones))
	d.grounded = zeroed(d.grounded, n)
	d.mark = zeroed(d.mark, n)
	for v, h := range tcb {
		d.local[h] = int32(v) + 1
	}

	// Grounded hosts: servers of any TLD zone reachable from the chain
	// (the TCB is exactly the servers of the reachable zones).
	queue := d.queue[:0]
	for _, z := range chain {
		if !d.zoneSeen[z] {
			d.zoneSeen[z] = true
			queue = append(queue, z)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, w := range g.zoneAdj[queue[i]] {
			if !d.zoneSeen[w] {
				d.zoneSeen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for _, z := range queue {
		d.zoneSeen[z] = false
		if g.ZoneIsTLD(z) {
			for _, h := range g.zoneNS[z] {
				if w := d.local[h]; w != 0 {
					d.grounded[w-1] = true
				}
			}
		}
	}
	d.queue = queue

	// Host edges. The members' address chains are read under one lock
	// (entries can attach in later epochs; the stamp check hides those
	// writes from this graph).
	off, adj := d.Off[:0], d.Adj[:0]
	sink := int32(n + 1)
	g.st.mu.RLock()
	for v, h := range tcb {
		off = append(off, int32(len(adj)))
		deps := g.hostDepsLocked(h)
		if d.grounded[v] || len(deps) == 0 {
			// TLD servers are root-glue-grounded; hosts with unknown
			// chains are grounded optimistically (the paper treats
			// unknowns optimistically throughout).
			adj = append(adj, sink)
			continue
		}
		from := int32(v) + 1
		for _, z := range deps {
			for _, h2 := range g.zoneNS[z] {
				if w := d.local[h2]; w != 0 && w != from && d.mark[w-1] != from {
					d.mark[w-1] = from
					adj = append(adj, w-1)
				}
			}
		}
	}
	g.st.mu.RUnlock()

	// Source -> NS(authoritative zone); Sink has no successors.
	off = append(off, int32(len(adj)))
	for _, h := range g.zoneNS[chain[len(chain)-1]] {
		if w := d.local[h]; w != 0 {
			adj = append(adj, w-1)
		}
	}
	d.Off = append(off, int32(len(adj)), int32(len(adj)))
	d.Adj = adj

	for _, h := range tcb {
		d.local[h] = 0
	}
	return nil
}

// DigraphClasses groups chains by the digraph Fill builds for them: for
// each cids[i] it returns the index in cids of the first chain of its
// class (i itself for a class's first chain). Two chains share a class
// when their prefixes (every zone but the authoritative one) are equal
// id by id, their authoritative zones' NS sets are equal as stored, and
// both or neither of those zones is a TLD; see Digraph for why their
// digraphs are then identical. A key is hashed, and every hash match is
// confirmed by an exact compare: a hash collision never merges two
// keys, and one NS set stored in two orders only splits a class. A
// chain with no zones, which Fill rejects, is a class of its own.
func (g *Graph) DigraphClasses(cids []int32) []int32 {
	rep := make([]int32, len(cids))
	next := make([]int32, len(cids)) // next[i]: the previous first chain of a class with i's hash, -1: none
	heads := make(map[uint64]int32)
	for i, cid := range cids {
		rep[i] = int32(i)
		chain := g.chains[cid]
		if len(chain) == 0 {
			continue
		}
		h := g.digraphKeyHash(chain)
		head, ok := heads[h]
		if !ok {
			head = -1
		}
		j := head
		for j >= 0 && !g.sameDigraphKey(chain, g.chains[cids[j]]) {
			j = next[j]
		}
		if j >= 0 {
			rep[i] = j
			continue
		}
		next[i], heads[h] = head, int32(i)
	}
	return rep
}

// digraphKeyHash hashes a non-empty chain's class key (FNV-1a over the
// ids, each list led by its length).
func (g *Graph) digraphKeyHash(chain []int32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(ids []int32) {
		h = (h ^ uint64(len(ids))) * prime
		for _, id := range ids {
			h = (h ^ uint64(uint32(id))) * prime
		}
	}
	last := chain[len(chain)-1]
	mix(chain[:len(chain)-1])
	mix(g.zoneNS[last])
	if g.ZoneIsTLD(last) {
		h = (h ^ 1) * prime
	}
	return h
}

// sameDigraphKey reports whether two non-empty chains have one class key.
func (g *Graph) sameDigraphKey(a, b []int32) bool {
	x, y := a[len(a)-1], b[len(b)-1]
	return int32sEqual(a[:len(a)-1], b[:len(b)-1]) &&
		int32sEqual(g.zoneNS[x], g.zoneNS[y]) &&
		g.ZoneIsTLD(x) == g.ZoneIsTLD(y)
}

// grown returns s with at least n elements, the added ones zero.
func grown[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// zeroed returns n zero elements, in s's array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ReachableZoneIDs returns every zone id reachable from name's delegation
// chain over the zone dependency graph (the zones of Figure 1's boxes),
// ordered by apex: ids follow the crawl's schedule, listings must not.
func (g *Graph) ReachableZoneIDs(name string) ([]int32, error) {
	cid, ok := g.NameChainID(name)
	if !ok {
		return nil, fmt.Errorf("core: name %q not in survey", name)
	}
	chain := g.chains[cid]
	seen := map[int32]bool{}
	var queue []int32
	for _, z := range chain {
		if !seen[z] {
			seen[z] = true
			queue = append(queue, z)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, w := range g.zoneAdj[queue[i]] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	sort.Slice(queue, func(i, j int) bool { return g.zones[queue[i]] < g.zones[queue[j]] })
	return queue, nil
}

// ZoneIsTLD reports whether zone id z is a top-level domain. A TLD's
// servers are reached through root referral glue, so every analysis
// treats them as grounded.
func (g *Graph) ZoneIsTLD(z int32) bool {
	return dnsname.CountLabels(g.zones[z]) == 1
}

// HostDepZoneIDs returns the zone ids host h's address depends on: its
// address chain less the glue waiver — an in-bailiwick server of its own
// zone is reached through parent referral glue, so that zone is not an
// address dependency. The slice is shared, do not modify.
func (g *Graph) HostDepZoneIDs(h int32) []int32 {
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	return g.hostDepsLocked(h)
}

// hostDepsLocked is HostDepZoneIDs with the store lock held by the caller.
func (g *Graph) hostDepsLocked(h int32) []int32 {
	chain := g.hostChainOfLocked(h)
	if n := len(chain); n > 0 {
		for _, ns := range g.zoneNS[chain[n-1]] {
			if ns == h {
				return chain[:n-1]
			}
		}
	}
	return chain
}

// DOT renders the name's delegation graph in Graphviz format at the zone
// level, mirroring Figure 1 of the paper: one box (cluster) per zone
// listing its nameservers, and an arrow from zone to zone for each
// dependency. Self-loops are omitted for clarity, as in the figure.
// Boxes and arrows come in apex order and servers in name order, so the
// text is the same whatever order the crawl interned them in.
func (g *Graph) DOT(name string) (string, error) {
	name = dnsname.Canonical(name)
	zoneIDs, err := g.ReachableZoneIDs(name)
	if err != nil {
		return "", err
	}
	// ns[z] lists zone z's servers by name; the first anchors its arrows.
	ns := make(map[int32][]string, len(zoneIDs))
	for _, z := range zoneIDs {
		for _, h := range g.zoneNS[z] {
			ns[z] = append(ns[z], g.hosts[h])
		}
		sort.Strings(ns[z])
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  rankdir=BT;\n  node [shape=plaintext, fontsize=10];\n")
	fmt.Fprintf(&sb, "  %q [shape=ellipse];\n", name)

	for _, z := range zoneIDs {
		apex := g.zones[z]
		fmt.Fprintf(&sb, "  subgraph \"cluster_%s\" {\n    label=%q;\n", apex, apex)
		for _, h := range ns[z] {
			fmt.Fprintf(&sb, "    %q;\n", h)
		}
		sb.WriteString("  }\n")
	}

	// Name -> its authoritative zone's first server (visual anchor to
	// the box).
	var chain []int32
	if cid, ok := g.NameChainID(name); ok {
		chain = g.chains[cid]
	}
	if len(chain) > 0 {
		az := chain[len(chain)-1]
		if len(ns[az]) > 0 {
			fmt.Fprintf(&sb, "  %q -> %q [lhead=\"cluster_%s\"];\n", name, ns[az][0], g.zones[az])
		}
	}

	// Zone -> zone dependency edges (self-loops dropped). Every zone a
	// reachable zone depends on is itself reachable, so zoneIDs lists
	// each target once, in apex order.
	for _, z := range zoneIDs {
		dep := map[int32]bool{}
		for _, w := range g.zoneAdj[z] {
			dep[w] = true
		}
		for _, w := range zoneIDs {
			if w == z || !dep[w] || len(ns[z]) == 0 || len(ns[w]) == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %q -> %q [ltail=\"cluster_%s\", lhead=\"cluster_%s\"];\n",
				ns[z][0], ns[w][0], g.zones[z], g.zones[w])
		}
	}
	sb.WriteString("}\n")
	return sb.String(), nil
}
