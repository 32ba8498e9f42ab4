package core

import (
	"fmt"
	"sort"
	"strings"

	"dnstrust/internal/dnsname"
)

// Digraph is the per-name, server-level delegation digraph of the paper's
// Figure 1, in the form consumed by the min-cut bottleneck analysis:
//
//   - node Source stands for the surveyed name;
//   - node Sink stands for the trust ground (the root, whose servers the
//     paper excludes and whose referral glue bootstraps all resolution);
//   - one node per nameserver host in the name's TCB;
//   - Source points at the NS hosts of the name's authoritative zone;
//   - a host points at every NS host of every zone on its address chain —
//     any of those servers could be involved in resolving the host;
//   - hosts serving a top-level domain point at Sink: their addresses
//     come from root referral glue, the bootstrap every resolution uses.
//
// A directed path Source→…→Sink is a way resolution can reach ground; a
// vertex cut over host nodes is a server set whose compromise intercepts
// every such path — a complete hijack.
type Digraph struct {
	// Name is the surveyed name this digraph belongs to.
	Name string
	// Hosts maps local node index -> host name. Local indices run
	// 0..len(Hosts)-1; Source and Sink are virtual nodes beyond them.
	Hosts []string
	// Source and Sink are the virtual node indices.
	Source, Sink int
	// Adj is the adjacency list over all nodes (hosts + Source + Sink).
	Adj [][]int
	// hostIndex maps host name -> local node index.
	hostIndex map[string]int
}

// NumNodes returns the total node count including Source and Sink.
func (d *Digraph) NumNodes() int { return len(d.Hosts) + 2 }

// HostNode returns the node index of a host, or -1.
func (d *Digraph) HostNode(host string) int {
	if i, ok := d.hostIndex[dnsname.Canonical(host)]; ok {
		return i
	}
	return -1
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

// isTLDZone reports whether zone id z is a top-level domain.
func (g *Graph) isTLDZone(z int32) bool {
	return dnsname.CountLabels(g.zones[z]) == 1
}

// Digraph builds the per-name delegation digraph for min-cut analysis.
func (g *Graph) Digraph(name string) (*Digraph, error) {
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

	d := &Digraph{Name: name, hostIndex: make(map[string]int, len(tcb))}
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
		if g.isTLDZone(z) {
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
