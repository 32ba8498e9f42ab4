// Package mincut implements the bottleneck analyses of §3.2 of the paper:
//
//   - minimum vertex cuts of per-chain delegation digraphs via Dinic
//     max-flow with node splitting (the method the paper names), with a
//     weighted variant that finds the cut containing the fewest
//     non-vulnerable ("safe") servers — Figure 7's quantity; and
//
//   - an exact minimum complete-hijack computation on the AND/OR
//     structure of delegation (falsify one zone per chain level), solved
//     with Knuth's generalization of Dijkstra to superior-function
//     grammars. The digraph min-cut is always a valid attack set; the
//     AND/OR answer is the true optimum. The two are compared in the
//     ablation benchmarks.
//
// A survey asks for one small cut per distinct delegation chain, tens of
// thousands of times, so the flow network lives in a Solver whose arrays
// are reused from chain to chain: once they have grown to the largest
// digraph a cut allocates nothing.
//
// The order in which a digraph lists its edges cannot change an answer.
// The cut's weight is the max-flow value, and its members are the nodes
// straddling the minimal source side of the residual graph — the set
// reachable from the source when no augmenting path is left — which is
// the same set for every maximum flow. Inputs therefore need no sorting.
package mincut

import "math"

// Inf is the capacity used for uncuttable nodes and structural edges.
const Inf = int64(math.MaxInt64 / 4)

// arc is one directed edge of the flow network. Arcs are stored in
// pairs: arc e's residual twin is arc e^1.
type arc struct {
	to   int32
	next int32 // next arc out of the same node, -1 at the end
	cap  int64
}

// Solver is a reusable Dinic max-flow over the node-split network of one
// digraph at a time. The zero value is ready; a Solver is not safe for
// concurrent use.
//
// Node v of the digraph becomes in(v) = 2v -> out(v) = 2v+1, and that
// arc pair is pair v, so node capacities can be set by node index; the
// digraph's own edges follow as uncuttable arcs out(u) -> in(v).
type Solver struct {
	n     int // digraph nodes; the network has 2n
	arcs  []arc
	head  []int32 // first arc out of each network node, -1 when none
	level []int32 // BFS depth from the source, -1 when residually unreachable
	iter  []int32 // next arc to try per node within a phase
	queue []int32

	weight []int64 // per digraph node, set by the caller before minCut
	cut    []int32 // minCut's result, reused
}

// begin starts the network of an n-node digraph. Node capacities are
// whatever the caller writes into s.weight[:n] before minCut.
func (s *Solver) begin(n int) {
	s.n = n
	s.arcs = s.arcs[:0]
	s.head = s.head[:0]
	for v := 0; v < 2*n; v++ {
		s.head = append(s.head, -1)
	}
	for v := int32(0); v < int32(n); v++ {
		s.addArc(2*v, 2*v+1)
	}
	if cap(s.weight) < n {
		s.weight = make([]int64, n)
	}
	s.weight = s.weight[:n]
}

// link adds the digraph edge u -> v. Self-loops carry no flow and are
// skipped.
func (s *Solver) link(u, v int32) {
	if u != v {
		s.addArc(2*u+1, 2*v)
	}
}

// addArc appends the arc pair from -> to; minCut sets the capacities.
func (s *Solver) addArc(from, to int32) {
	e := int32(len(s.arcs))
	s.arcs = append(s.arcs,
		arc{to: to, next: s.head[from]},
		arc{to: from, next: s.head[to]})
	s.head[from], s.head[to] = e, e+1
}

// minCut computes a minimum-weight vertex cut separating source from
// sink under s.weight (source and sink are unremovable) and returns its
// weight, leaving the members in s.cut. It may be called repeatedly on
// one network with different weights.
func (s *Solver) minCut(source, sink int32) (int64, error) {
	for v := 0; v < s.n; v++ {
		s.arcs[2*v].cap, s.arcs[2*v+1].cap = s.weight[v], 0
	}
	s.arcs[2*source].cap, s.arcs[2*sink].cap = Inf, Inf
	for e := 2 * s.n; e < len(s.arcs); e += 2 {
		s.arcs[e].cap, s.arcs[e+1].cap = Inf, 0
	}

	src, dst := 2*source+1, 2*sink
	s.cut = s.cut[:0]
	var flow int64
	for s.bfs(src, dst) {
		s.iter = append(s.iter[:0], s.head...)
		for {
			f := s.dfs(src, dst, Inf)
			if f == 0 {
				break
			}
			flow += f
			if flow >= Inf {
				return 0, ErrNoFiniteCut
			}
		}
	}
	if flow == 0 {
		return 0, nil
	}
	// The last bfs found no augmenting path, so level marks exactly the
	// residual source side: a node is cut when its in-half is on that
	// side and its out-half is not.
	for v := int32(0); v < int32(s.n); v++ {
		if v != source && v != sink && s.level[2*v] >= 0 && s.level[2*v+1] < 0 {
			s.cut = append(s.cut, v)
		}
	}
	return flow, nil
}

// bfs builds the level graph over every node residually reachable from
// src (it does not stop at dst: minCut reads the last level graph as the
// reachability set) and reports whether dst is among them.
func (s *Solver) bfs(src, dst int32) bool {
	s.level = s.level[:0]
	for range s.head {
		s.level = append(s.level, -1)
	}
	s.level[src] = 0
	s.queue = append(s.queue[:0], src)
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		for e := s.head[v]; e >= 0; e = s.arcs[e].next {
			if a := &s.arcs[e]; a.cap > 0 && s.level[a.to] < 0 {
				s.level[a.to] = s.level[v] + 1
				s.queue = append(s.queue, a.to)
			}
		}
	}
	return s.level[dst] >= 0
}

// dfs pushes one augmenting path of the blocking flow.
func (s *Solver) dfs(v, dst int32, f int64) int64 {
	if v == dst {
		return f
	}
	for ; s.iter[v] >= 0; s.iter[v] = s.arcs[s.iter[v]].next {
		e := s.iter[v]
		a := &s.arcs[e]
		if a.cap > 0 && s.level[v] < s.level[a.to] {
			if d := s.dfs(a.to, dst, min(f, a.cap)); d > 0 {
				a.cap -= d
				s.arcs[e^1].cap += d
				return d
			}
		}
	}
	return 0
}
