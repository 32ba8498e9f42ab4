// Chain-keyed analysis memoization. Names sharing a delegation chain
// share a TCB and a min-cut digraph, and a monitored survey's chains are
// interned with stable ids across generations — so analysis results can
// be cached per chain id and survive incremental Adds, invalidated only
// for the chains an Add actually touched.
package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"dnstrust/internal/crawler"
	"dnstrust/internal/mincut"
)

// ChainMemo caches per-chain analysis results — min-cut bottlenecks and
// TCB size/vulnerability counts — keyed by interned chain id, across the
// generations of a monitored survey, and keeps the whole-survey Summary
// and Bottlenecks as aggregates it folds forward commit by commit. It is
// safe for concurrent use: readers of several generations may look up
// and store results while a Monitor advances the memo past new
// generations.
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
//
// The aggregates. Once a view's Summary or Bottlenecks has been asked
// through the memo, the memo holds that analysis as dense per-chain
// columns (chainAgg): the number of names riding each chain, and the
// values the chain was last priced at — TCB size, vulnerable members and
// direct servers for Summary, cut size and safe servers for Bottlenecks.
// From then on Advance logs, per commit, the names whose chain mapping
// changed (the store's journal, read before the owner prunes it) plus
// every name riding a chain it marked, and the marked chains themselves.
// A later view's analysis folds the logs since the aggregate's
// generation: each logged name steps off its old chain and onto its new
// one, marked chains are re-priced, and min-cuts are solved only for
// chains that are new or marked: a max-flow per digraph class among
// them (core.Graph.DigraphClasses), its cut stored under every member's
// id. Keys and invalidation stay per chain: members of a class share a
// TCB, so a late-attached or rescored host marks all of them together.
// The cost is O(names logged), not O(names surveyed). A view of a
// foreign store, one older than the aggregate, or one the log does not
// reach (a commit Advance did not see, or a log grown past the
// aggregate's name count, which empties it) takes the cold pass — the
// same fold from an empty aggregate over every name — and only a
// same-store view newer than the aggregate replaces it. A memo whose aggregates were never built (the verdict
// cache's) logs nothing. The log has its own lock: Advance appends to
// it without waiting for a fold in progress.
type ChainMemo struct {
	mu sync.RWMutex
	// lastTouch[cid] is the generation at which the chain's dependency
	// structure last changed; absent means never since monitoring began.
	lastTouch map[int32]int64
	cuts      map[int32]memoCut
	counts    map[int32]memoCount

	// aggMu guards the aggregates and the work counters. A warm fold
	// holds it throughout; a cold pass takes it only to install what it
	// built. A commit never takes it.
	aggMu sync.Mutex
	// sum and bot are the Summary and Bottlenecks aggregates, nil until
	// a whole-survey pass builds them.
	sum, bot *chainAgg
	// steps and solves count every fold's per-name steps and min-cut
	// solves, for tests that hold a warm analysis to what changed.
	steps, solves int64

	// logMu guards the commit log. Advance only appends to it, so a
	// commit never waits for a fold; a fold copies the entries it needs
	// under logMu and folds them under aggMu alone.
	logMu sync.Mutex
	// logging is set once an aggregate is held, and cleared when a
	// commit breaks the log; held is the held aggregates' largest name
	// count, the budget of logNames.
	logging  bool
	held     int
	log      []commitLog
	logNames int
}

// commitLog is what one commit changed, as Advance saw it.
type commitLog struct {
	from, to int64 // generations
	epoch    int64 // graph epoch of generation to
	// names lists, sorted, the names whose chain mapping changed plus
	// the names (in generation from) riding a stale chain.
	names []string
	// stale lists the chains Advance marked: their TCB holds a
	// late-attached or rescored host, so their price may have changed.
	stale []int32
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
// overwhelmingly common batch — invalidation is O(1). When the memo
// holds an aggregate, Advance also logs the commit's changed names for
// the next fold: O(names the commit touched). Call it before the
// store's journal for prev's epoch is pruned.
func (m *ChainMemo) Advance(prev, next *crawler.Survey) {
	if m == nil || prev == nil || next == nil {
		return
	}
	stale := m.invalidate(prev, next)
	m.logCommit(prev, next, stale)
}

// invalidate marks and drops the chains whose TCB in prev holds a host
// next reports late-attached or rescored, and returns them in id order.
func (m *ChainMemo) invalidate(prev, next *crawler.Survey) []int32 {
	late, rescored := next.Stats.LateAttachedHosts, next.Stats.RescoredHosts
	if len(late)+len(rescored) == 0 {
		return nil
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
	var stale []int32
	m.mu.Lock()
	defer m.mu.Unlock()
	for cid := int32(0); cid < int32(g.NumChains()); cid++ {
		for _, h := range g.ChainTCBIDs(cid) {
			if lateSet[h] {
				m.lastTouch[cid] = gen
				delete(m.cuts, cid)
				delete(m.counts, cid)
				stale = append(stale, cid)
				break
			}
		}
	}
	return stale
}

// minLogNames is how many logged names the memo keeps before it weighs
// the log against a cold pass over the aggregate's names.
const minLogNames = 1024

// logCommit records the commit prev → next for the aggregates' next
// fold. A commit the journal cannot describe — another store, or a
// pruned journal — or a log grown past what a cold pass costs breaks
// the log: no fold crosses it, and the next whole-survey pass is cold.
func (m *ChainMemo) logCommit(prev, next *crawler.Survey, stale []int32) {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	if !m.logging {
		return
	}
	pg, ng := prev.Graph, next.Graph
	if !ng.JournalFrom(pg) {
		m.breakLogLocked()
		return
	}
	names := ng.NamesTouchedSince(pg.Epoch())
	if len(stale) > 0 {
		for _, cid := range stale {
			names = append(names, pg.NamesOnChain(cid)...)
		}
		slices.Sort(names)
		names = slices.Compact(names)
	}
	m.log = append(m.log, commitLog{
		from:  prev.Stats.Generation,
		to:    next.Stats.Generation,
		epoch: ng.Epoch(),
		names: names,
		stale: stale,
	})
	m.logNames += len(names)
	// Folding more names than the aggregate holds costs more than the
	// cold pass it would save.
	if m.logNames > max(m.held, minLogNames) {
		m.breakLogLocked()
	}
}

// breakLogLocked empties the log and stops logging until the next
// aggregate is installed. The held aggregates stay, but no fold reaches
// past them: a later view's pass finds the gap and runs cold.
func (m *ChainMemo) breakLogLocked() {
	m.logging = false
	m.log, m.logNames = nil, 0
}

// syncLogLocked tells the log what the held aggregates need, after one
// was installed or folded forward: logging on, the name budget, and
// only the entries some aggregate has yet to fold. Logging restarted
// after a break leaves a gap that every older aggregate detects.
func (m *ChainMemo) syncLogLocked() {
	floor, held := int64(math.MaxInt64), 0
	for _, a := range []*chainAgg{m.sum, m.bot} {
		if a != nil {
			floor = min(floor, a.survey.Stats.Generation)
			held = max(held, a.survey.Graph.NumNames())
		}
	}
	m.logMu.Lock()
	defer m.logMu.Unlock()
	m.logging, m.held = true, held
	i := 0
	for i < len(m.log) && m.log[i].to <= floor {
		m.logNames -= len(m.log[i].names)
		i++
	}
	m.log = slices.Delete(m.log, 0, i)
}

// changes collects what the log says changed between the aggregate's
// generation and s's: the names to move and the chains to re-price. ok
// is false when no fold reaches s — another store, an older or equal
// generation held by another survey, or a gap in the log.
func (m *ChainMemo) changes(a *chainAgg, s *crawler.Survey) (names []string, stale []int32, ok bool) {
	if a.survey == s {
		return nil, nil, true
	}
	ag, sg := a.survey.Graph, s.Graph
	gen, want := a.survey.Stats.Generation, s.Stats.Generation
	if !sg.SharesStore(ag) || ag.Epoch() > sg.Epoch() || want <= gen {
		return nil, nil, false
	}
	epoch, logs := ag.Epoch(), 0
	m.logMu.Lock()
	for _, l := range m.log {
		if l.to <= gen {
			continue
		}
		if l.from != gen {
			break
		}
		names = append(names, l.names...)
		stale = append(stale, l.stale...)
		gen, epoch = l.to, l.epoch
		logs++
		if gen == want {
			break
		}
	}
	m.logMu.Unlock()
	if gen != want || epoch != sg.Epoch() {
		return nil, nil, false
	}
	if logs > 1 {
		slices.Sort(names)
		names = slices.Compact(names)
	}
	return names, stale, true
}

// whole brings the memo's aggregate of one kind (cuts: Bottlenecks;
// otherwise Summary) to s — a fold when the log reaches s, else a cold
// pass — and hands it to read, under aggMu when the aggregate is the
// memo's. A cancelled ctx returns its error with the held
// aggregate untouched.
func (m *ChainMemo) whole(ctx context.Context, s *crawler.Survey, cuts bool, workers int, read func(*chainAgg)) error {
	m.aggMu.Lock()
	slot := &m.sum
	if cuts {
		slot = &m.bot
	}
	if a := *slot; a != nil {
		if names, stale, ok := m.changes(a, s); ok {
			err := a.fold(ctx, s, names, chainIDs(s.Graph, names), stale, workers, m)
			m.steps, m.solves = m.steps+a.steps, m.solves+a.solves
			if err == nil {
				read(a)
				m.syncLogLocked()
				m.aggMu.Unlock()
				return nil
			}
			if !errors.Is(err, errStaleChain) {
				m.aggMu.Unlock()
				return err
			}
			*slot = nil // the columns no longer describe any generation
		}
	}
	m.aggMu.Unlock()

	a := newChainAgg(cuts)
	if err := a.fold(ctx, s, s.Names, chainIDs(s.Graph, s.Names), nil, workers, m); err != nil {
		return err
	}
	read(a)
	m.aggMu.Lock()
	defer m.aggMu.Unlock()
	m.steps, m.solves = m.steps+a.steps, m.solves+a.solves
	if cur := *slot; cur == nil || (cur.survey.Graph.SharesStore(s.Graph) && cur.survey.Stats.Generation < s.Stats.Generation) {
		*slot = a
		m.syncLogLocked()
	}
	return nil
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

// vulnCount returns the (TCB size, vulnerable members) of a chain in s,
// served from and stored into the memo (which may be nil).
func (m *ChainMemo) vulnCount(s *crawler.Survey, cid int32) (size, vuln int) {
	gen := s.Stats.Generation
	if size, vuln, ok := m.count(cid, gen); ok {
		return size, vuln
	}
	ids := s.Graph.ChainTCBIDs(cid)
	for _, id := range ids {
		if len(s.HostVulns(id)) > 0 {
			vuln++
		}
	}
	m.storeCount(cid, gen, len(ids), vuln)
	return len(ids), vuln
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
	c, err := sc.solve(g, cid, func(host int32) bool { return len(s.HostVulns(host)) > 0 })
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
