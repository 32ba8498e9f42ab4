// Chain-keyed analysis memoization. Names sharing a delegation chain
// share a TCB and a min-cut digraph, and a monitored survey's chains are
// interned with stable ids across generations — so analysis results can
// be cached per chain id and survive incremental Adds, invalidated only
// for the chains an Add actually touched.
package analysis

import (
	"fmt"
	"sync"

	"dnstrust/internal/crawler"
	"dnstrust/internal/mincut"
)

// ChainMemo caches per-chain analysis results — min-cut bottlenecks and
// TCB size/vulnerability counts — keyed by interned chain id, across the
// generations of a monitored survey. It is safe for concurrent use:
// readers of several generations may look up and store results while a
// Monitor advances the memo past new generations.
//
// Correctness across generations rests on the builder's invariants: a
// chain id means the same delegation chain forever, zone NS sets are
// first-observation-wins immutable, and the only way an existing chain's
// TCB or digraph can change between generations is a host whose address
// chain attached late (crawler.CrawlStats.LateAttachedHosts). The only
// way its vulnerability counts and cut weights can change is a host
// rescored by a later banner (crawler.CrawlStats.RescoredHosts). Advance
// marks exactly the chains whose TCB intersects either set as touched;
// every entry records the generation it was computed at, and a lookup
// from a generation-g view hits only when the chain was last touched at
// or before both g and the entry's generation.
type ChainMemo struct {
	mu sync.RWMutex
	// lastTouch[cid] is the generation at which the chain's dependency
	// structure last changed; absent means never since monitoring began.
	lastTouch map[int32]int64
	cuts      map[int32]memoCut
	counts    map[int32]memoCount
}

type memoCut struct {
	gen int64
	res *mincut.Result
}

type memoCount struct {
	gen        int64
	size, vuln int
}

// NewChainMemo returns an empty memo.
func NewChainMemo() *ChainMemo {
	return &ChainMemo{
		lastTouch: make(map[int32]int64),
		cuts:      make(map[int32]memoCut),
		counts:    make(map[int32]memoCount),
	}
}

// Advance moves the memo from one committed generation to the next:
// chains whose TCB (in the previous generation) contains a late-attached
// or rescored host are marked touched at the new generation and their
// entries dropped; every other entry stays valid. With neither — the
// overwhelmingly common batch — Advance is O(1).
func (m *ChainMemo) Advance(prev, next *crawler.Survey) {
	if m == nil || prev == nil || next == nil {
		return
	}
	late, rescored := next.Stats.LateAttachedHosts, next.Stats.RescoredHosts
	if len(late)+len(rescored) == 0 {
		return
	}
	lateSet := make(map[int32]bool, len(late)+len(rescored))
	for _, h := range late {
		lateSet[h] = true
	}
	for _, h := range rescored {
		lateSet[h] = true
	}
	gen := next.Stats.Generation
	g := prev.Graph
	m.mu.Lock()
	defer m.mu.Unlock()
	for cid := int32(0); cid < int32(g.NumChains()); cid++ {
		for _, h := range g.ChainTCBIDs(cid) {
			if lateSet[h] {
				m.lastTouch[cid] = gen
				delete(m.cuts, cid)
				delete(m.counts, cid)
				break
			}
		}
	}
}

// validFor reports whether an entry computed at entryGen serves a view
// of generation viewGen: the chain must not have been touched after
// either. lastTouch is read under the lock by callers.
func (m *ChainMemo) validFor(cid int32, entryGen, viewGen int64) bool {
	t := m.lastTouch[cid]
	return t <= entryGen && t <= viewGen
}

// cut returns the memoized min-cut of a chain for a view generation.
func (m *ChainMemo) cut(cid int32, viewGen int64) (*mincut.Result, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.cuts[cid]
	if !ok || !m.validFor(cid, e.gen, viewGen) {
		return nil, false
	}
	return e.res, true
}

// storedCut is one freshly computed chain result on its way into the memo.
type storedCut struct {
	cid int32
	res *mincut.Result
}

// storeCuts records, under one lock, min-cuts computed against a view of
// the given generation, preferring the newest computation when views of
// different generations race.
func (m *ChainMemo) storeCuts(viewGen int64, batch []storedCut) {
	if m == nil || len(batch) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range batch {
		if e, ok := m.cuts[c.cid]; ok && e.gen > viewGen {
			continue
		}
		m.cuts[c.cid] = memoCut{gen: viewGen, res: c.res}
	}
}

// count returns the memoized (TCB size, vulnerable members) of a chain
// for a view generation.
func (m *ChainMemo) count(cid int32, viewGen int64) (size, vuln int, ok bool) {
	if m == nil {
		return 0, 0, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.counts[cid]
	if !ok || !m.validFor(cid, e.gen, viewGen) {
		return 0, 0, false
	}
	return e.size, e.vuln, true
}

// storeCount records a chain's TCB counts computed against a view of the
// given generation.
func (m *ChainMemo) storeCount(cid int32, viewGen int64, size, vuln int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.counts[cid]; ok && e.gen > viewGen {
		return
	}
	m.counts[cid] = memoCount{gen: viewGen, size: size, vuln: vuln}
}

// BottleneckOfMemo runs the §3.2 min-cut analysis for one name through
// the memo: the first query of a chain pays the max-flow, every later
// query of any name on that chain — in this generation or any untouched
// one — is a lookup. The returned result is caller-owned. memo may be
// nil.
func BottleneckOfMemo(s *crawler.Survey, name string, memo *ChainMemo) (*mincut.Result, error) {
	g := s.Graph
	cid, ok := g.NameChainID(name)
	if !ok {
		return nil, fmt.Errorf("analysis: name %q not in survey", name)
	}
	gen := s.Stats.Generation
	if res, ok := memo.cut(cid, gen); ok {
		return res.Clone(), nil
	}
	sc := scratchPool.Get().(*cutScratch)
	defer scratchPool.Put(sc)
	c, err := sc.solve(g, cid, func(host int32) bool { return s.Vulnerable(g.Host(host)) })
	if err != nil {
		return nil, fmt.Errorf("analysis: min-cut of %q: %w", name, err)
	}
	res := sc.result(g, c)
	if memo == nil {
		return res, nil
	}
	memo.storeCuts(gen, []storedCut{{cid: cid, res: res}})
	return res.Clone(), nil
}
