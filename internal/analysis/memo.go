// Chain-keyed analysis memoization. Names sharing a delegation chain
// share a TCB and a min-cut digraph, and a monitored survey's chains are
// interned with stable ids across generations — so analysis results can
// be cached per chain id and survive incremental Adds, dropped together
// on the rare commit that can change a chain's price.
package analysis

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"dnstrust/internal/crawler"
	"dnstrust/internal/mincut"
)

// ChainMemo caches per-chain min-cut bottlenecks, keyed by interned
// chain id, across the generations of a monitored survey, and keeps the
// whole-survey Summary and Bottlenecks as aggregates it folds forward
// commit by commit. It is safe for concurrent use: readers of several
// generations may look up and store results while a Monitor advances
// the memo past new generations.
//
// Correctness across generations rests on the builder's invariants: a
// chain id means the same delegation chain forever, zone NS sets are
// first-observation-wins immutable, and the only way an existing chain's
// TCB or digraph can change between generations is a host whose address
// chain attached late (crawler.CrawlStats.LateAttachedHosts). The only
// way its vulnerability counts and cut weights can change is a host
// rescored by a later banner (crawler.CrawlStats.RescoredHosts). Both
// are rare — a crawl of a generated world reports neither — so a commit
// that reports either flushes the memo: every cut is dropped, the commit
// log is broken, and the floor moves to the new generation. A cut serves
// and is stored from views at or after the floor only, so no cut crosses
// a change; between flushes every chain's price is fixed.
//
// The aggregates. Once a view's Summary or Bottlenecks has been asked
// through the memo, the memo holds that analysis as dense per-chain
// columns (chainAgg): the number of names riding each chain, and the
// values the chain was priced at — TCB size, vulnerable members and
// direct servers for Summary, cut size and safe servers for Bottlenecks.
// From then on Advance logs, per commit, the names whose chain mapping
// changed (the store's journal, read before the owner prunes it). A
// later view's analysis folds the logs since the aggregate's generation:
// each logged name steps off its old chain and onto its new one, and
// chains are priced, min-cuts solved, only for chains the aggregate has
// not priced: a max-flow per digraph class among them
// (core.Graph.DigraphClasses), its cut stored under every member's id.
// The cost is O(names logged), not O(names surveyed). A view of a
// foreign store, one older than the aggregate, or one the log does not
// reach (a flush, a commit Advance did not see, or a log grown past the
// aggregate's name count, which empties it) takes the cold pass — the
// same fold from an empty aggregate over every name — and only a
// same-store view newer than the aggregate replaces it. A memo whose
// aggregates were never built (the verdict cache's) logs nothing. The
// log has its own lock: Advance appends to it without waiting for a fold
// in progress.
type ChainMemo struct {
	mu sync.RWMutex
	// floor is the generation of the last flush: cuts holds results
	// computed against views at or after it only.
	floor int64
	cuts  map[int32]*mincut.Result

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
	// names lists, sorted, the names whose chain mapping changed.
	names []string
}

// NewChainMemo returns an empty memo.
func NewChainMemo() *ChainMemo {
	return &ChainMemo{cuts: make(map[int32]*mincut.Result)}
}

// Advance moves the memo from one committed generation to the next. A
// commit that reports a late-attached or rescored host flushes the
// memo; any other — the overwhelmingly common batch — keeps every cut
// and, when the memo holds an aggregate, logs the commit's changed names
// for the next fold: O(names the commit touched). Call it before the
// store's journal for prev's epoch is pruned.
func (m *ChainMemo) Advance(prev, next *crawler.Survey) {
	if m == nil || prev == nil || next == nil {
		return
	}
	if len(next.Stats.LateAttachedHosts)+len(next.Stats.RescoredHosts) == 0 {
		m.logCommit(prev, next)
		return
	}
	m.mu.Lock()
	m.floor = next.Stats.Generation
	clear(m.cuts)
	m.mu.Unlock()
	m.logMu.Lock()
	m.breakLogLocked()
	m.logMu.Unlock()
}

// minLogNames is how many logged names the memo keeps before it weighs
// the log against a cold pass over the aggregate's names.
const minLogNames = 1024

// logCommit records the commit prev → next for the aggregates' next
// fold. A commit the journal cannot describe — another store, or a
// pruned journal — or a log grown past what a cold pass costs breaks
// the log: no fold crosses it, and the next whole-survey pass is cold.
func (m *ChainMemo) logCommit(prev, next *crawler.Survey) {
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
	m.log = append(m.log, commitLog{
		from:  prev.Stats.Generation,
		to:    next.Stats.Generation,
		epoch: ng.Epoch(),
		names: names,
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
	oldest, held := int64(math.MaxInt64), 0
	for _, a := range []*chainAgg{m.sum, m.bot} {
		if a != nil {
			oldest = min(oldest, a.survey.Stats.Generation)
			held = max(held, a.survey.Graph.NumNames())
		}
	}
	m.logMu.Lock()
	defer m.logMu.Unlock()
	m.logging, m.held = true, held
	i := 0
	for i < len(m.log) && m.log[i].to <= oldest {
		m.logNames -= len(m.log[i].names)
		i++
	}
	m.log = slices.Delete(m.log, 0, i)
}

// changes collects the names the log says moved between the
// aggregate's generation and s's. ok is false when no fold reaches s —
// another store, an older or equal generation held by another survey,
// or a gap in the log.
func (m *ChainMemo) changes(a *chainAgg, s *crawler.Survey) (names []string, ok bool) {
	if a.survey == s {
		return nil, true
	}
	ag, sg := a.survey.Graph, s.Graph
	gen, want := a.survey.Stats.Generation, s.Stats.Generation
	if !sg.SharesStore(ag) || ag.Epoch() > sg.Epoch() || want <= gen {
		return nil, false
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
		gen, epoch = l.to, l.epoch
		logs++
		if gen == want {
			break
		}
	}
	m.logMu.Unlock()
	if gen != want || epoch != sg.Epoch() {
		return nil, false
	}
	if logs > 1 {
		slices.Sort(names)
		names = slices.Compact(names)
	}
	return names, true
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
		if names, ok := m.changes(a, s); ok {
			err := a.fold(ctx, s, names, chainIDs(s.Graph, names), workers, m)
			m.steps, m.solves = m.steps+a.steps, m.solves+a.solves
			if err == nil {
				read(a)
				m.syncLogLocked()
			}
			m.aggMu.Unlock()
			return err
		}
	}
	m.aggMu.Unlock()

	a := newChainAgg(cuts)
	if err := a.fold(ctx, s, s.Names, chainIDs(s.Graph, s.Names), workers, m); err != nil {
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

// cut returns the memoized min-cut of a chain for a view generation.
func (m *ChainMemo) cut(cid int32, viewGen int64) (*mincut.Result, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if viewGen < m.floor {
		return nil, false
	}
	res, ok := m.cuts[cid]
	return res, ok
}

// storedCut is one freshly computed chain result on its way into the memo.
type storedCut struct {
	cid int32
	res *mincut.Result
}

// storeCuts records, under one lock, min-cuts computed against a view of
// the given generation. A view older than the last flush stores
// nothing: its cuts may predate the change.
func (m *ChainMemo) storeCuts(viewGen int64, batch []storedCut) {
	if m == nil || len(batch) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if viewGen < m.floor {
		return
	}
	for _, c := range batch {
		m.cuts[c.cid] = c.res
	}
}

// BottleneckOfMemo runs the §3.2 min-cut analysis for one name through
// the memo: the first query of a chain pays the max-flow, every later
// query of any name on that chain — in this generation or any other
// since the last flush — is a lookup. The returned result is caller-owned. memo may be
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
