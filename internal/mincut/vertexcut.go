package mincut

import (
	"errors"
	"fmt"

	"dnstrust/internal/core"
)

// ErrNoFiniteCut is returned when every source-sink separation needs an
// unremovable node: the source is adjacent to the sink, or the cut's
// weight reaches Inf.
var ErrNoFiniteCut = errors.New("mincut: no finite vertex cut (source adjacent to sink?)")

// VertexCut computes a minimum-weight vertex cut separating source from
// sink in the digraph given by adj. weights[v] is the cost of removing
// node v; source and sink are unremovable. It returns the cut members and
// the total weight (0 and an empty cut when sink is already unreachable).
//
// Classic node splitting: v becomes v_in -> v_out with capacity
// weights[v]; an original edge u->v becomes u_out -> v_in with infinite
// capacity. A max-flow then saturates exactly a minimum vertex cut, and
// the cut members are the nodes whose in-half is residually reachable
// from the source while their out-half is not.
func VertexCut(adj [][]int, weights []int64, source, sink int) ([]int, int64, error) {
	return new(Solver).VertexCut(adj, weights, source, sink)
}

// VertexCut is the package-level VertexCut on s's reusable network.
func (s *Solver) VertexCut(adj [][]int, weights []int64, source, sink int) ([]int, int64, error) {
	n := len(adj)
	if source < 0 || source >= n || sink < 0 || sink >= n {
		return nil, 0, fmt.Errorf("mincut: source/sink out of range")
	}
	if source == sink {
		return nil, 0, fmt.Errorf("mincut: source equals sink")
	}
	if len(weights) != n {
		return nil, 0, fmt.Errorf("mincut: %d weights for %d nodes", len(weights), n)
	}
	s.begin(n)
	for v, succ := range adj {
		for _, w := range succ {
			s.link(int32(v), int32(w))
		}
	}
	copy(s.weight, weights)
	total, err := s.minCut(int32(source), int32(sink))
	if err != nil || total == 0 {
		return nil, 0, err
	}
	cut := make([]int, len(s.cut))
	for i, v := range s.cut {
		cut[i] = int(v)
	}
	return cut, total, nil
}

// Result is the bottleneck analysis of one name's delegation digraph.
type Result struct {
	// Cut lists the cut's nameserver hosts, by name.
	Cut []string
	// Size is the number of servers in the minimum cut (unit weights).
	Size int
	// SafeInCut is the number of non-vulnerable servers in the cut that
	// minimizes that number (the Figure 7 quantity).
	SafeInCut int
	// VulnInCut is the number of vulnerable servers in that same cut.
	VulnInCut int
}

// Clone returns a deep copy of the result with a caller-owned Cut
// slice. Memoization layers (analysis.ChainMemo) hand out clones so the
// cached copy can never be mutated through a returned result.
func (r *Result) Clone() *Result {
	cp := *r
	cp.Cut = append([]string(nil), r.Cut...)
	return &cp
}

// safeWeight is the weighted-cut coefficient for safe servers. With
// vulnerable servers costing 1, any cut with fewer safe servers always
// wins, and the vulnerable count breaks ties. It bounds the supported
// digraph size (cut weight must stay below Inf).
const safeWeight = int64(1) << 32

// Cut is the bottleneck of one delegation digraph, by local node.
type Cut struct {
	// Nodes lists the minimum (unit-weight) cut's members as local node
	// indices of the digraph. It aliases the Solver and is valid until
	// the Solver's next use.
	Nodes []int32
	// SafeInCut and VulnInCut count the non-vulnerable and vulnerable
	// servers of the cut that minimizes the former (Result's fields).
	SafeInCut, VulnInCut int
}

// Analyze runs both cut computations on a delegation digraph: the split
// network is built once, the weighted cut runs on it, then the unit cut
// with the capacities reset — last, because its members are what
// Cut.Nodes aliases. vulnerable reports whether an interned host id has a
// known exploit. It allocates nothing once s has grown to the digraph's
// size.
func (s *Solver) Analyze(d *core.Digraph, vulnerable func(host int32) bool) (Cut, error) {
	n := d.NumNodes()
	s.begin(n)
	for v := 0; v < n; v++ {
		for _, w := range d.Succ(v) {
			s.link(int32(v), w)
		}
	}
	source, sink := int32(d.Source()), int32(d.Sink())

	for v, h := range d.Hosts {
		if vulnerable(h) {
			s.weight[v] = 1
		} else {
			s.weight[v] = safeWeight
		}
	}
	wtotal, err := s.minCut(source, sink)
	if err != nil {
		return Cut{}, err
	}
	c := Cut{SafeInCut: int(wtotal / safeWeight)}
	c.VulnInCut = len(s.cut) - c.SafeInCut

	for v := range d.Hosts {
		s.weight[v] = 1
	}
	if _, err := s.minCut(source, sink); err != nil {
		return Cut{}, err
	}
	c.Nodes = s.cut
	return c, nil
}
