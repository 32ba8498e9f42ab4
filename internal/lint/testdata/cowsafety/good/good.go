// Conforming copy-on-write code: the publish idiom — load, clone,
// mutate the clone, store the clone — plus ordinary read-only access.
package a

import (
	"maps"
	"sync/atomic"
)

type counts = map[string]int

type store struct {
	ptr atomic.Pointer[counts]
}

// cloneThenStore is the sanctioned write path: maps.Clone is a function
// call, which launders the taint, so mutating the clone is fine.
func cloneThenStore(s *store) {
	old := s.ptr.Load()
	nm := maps.Clone(*old)
	nm["k"] = 1
	delete(nm, "gone")
	s.ptr.Store(&nm)
}

// readOnly may freely read through the loaded snapshot.
func readOnly(s *store) (int, int) {
	m := *s.ptr.Load()
	total := 0
	for _, v := range m {
		total += v
	}
	return m["k"], total
}

// freshMap mutates a map that never came from a Load.
func freshMap() counts {
	m := make(counts)
	m["k"] = 1
	return m
}

// rebuiltCopy appends into a nil slice, not the loaded backing array.
type ints = []int

type lstore struct {
	p atomic.Pointer[ints]
}

func rebuiltCopy(l *lstore) []int {
	var out []int
	out = append(out, (*l.p.Load())...)
	return out
}

// otherLoad: Load on a non-Pointer atomic is not copy-on-write state.
func otherLoad(n *atomic.Int64) int64 {
	return n.Load() + 1
}
