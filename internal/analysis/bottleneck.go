package analysis

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/mincut"
)

// BottleneckStats aggregates the Figure 7 analysis over a name set. It
// holds distributions, not per-name lists: a view's stats are folded
// from per-chain columns (see ChainMemo), where names have no order.
type BottleneckStats struct {
	// SafeCounts is the distribution, over names, of the number of
	// non-vulnerable servers in the min-cut that minimizes that number
	// (Figure 7's x axis).
	SafeCounts *CDF
	// CutSizes is the distribution, over names, of the size of the
	// minimum (unweighted) vertex cut (the paper's "average min-cut is
	// 2.5 nameservers").
	CutSizes *CDF
	// FullyVulnerable counts names whose bottleneck consists entirely of
	// exploitable servers (the paper's 30%).
	FullyVulnerable int
	// OneSafe counts names with exactly one safe bottleneck server (the
	// "DoS the one safe server" population, the paper's extra 10%).
	OneSafe int
	// Names is the number of names analyzed.
	Names int
}

// Bottlenecks runs the min-cut analysis of §3.2 over the given names.
// Names sharing a delegation chain share a digraph, and so do chains of
// one digraph class (core.Graph.DigraphClasses), so a cut is solved
// once per class of the names' chains — no string keys are built on
// this path.
// The work is spread over workers goroutines (0 = GOMAXPROCS).
func Bottlenecks(ctx context.Context, s *crawler.Survey, names []string, workers int) (*BottleneckStats, error) {
	return BottlenecksMemo(ctx, s, names, workers, nil)
}

// chainCut is one chain's min-cut as a pass prices it.
type chainCut struct {
	size, safe int32
	ok         bool // false: the chain has no computable cut
}

// missRange is how many classes' first chains a worker claims at a
// time: at a few microseconds a max-flow, large enough that the cursor
// and the ctx check cost nothing, small enough that a cancelled pass
// stops within a millisecond and the last ranges still balance.
const missRange = 64

// BottlenecksMemo is Bottlenecks backed by a persistent chain memo
// (nil is allowed: dedup within the call only). Over the survey's own
// name list the memo serves the whole-survey aggregate, folded forward
// from the last generation it was asked of: a commit costs the names it
// touched plus a max-flow per digraph class among the new chains (see
// ChainMemo). Over any other list the pass is the same fold from an
// empty aggregate: chains whose min-cut is cached (from an earlier pass,
// in this generation or another since the memo's last flush) are priced
// without running max-flow, the rest with a max-flow per digraph
// class, and every freshly priced chain is stored for the next pass.
//
// A cancelled pass returns ctx.Err() after its workers have stopped;
// the cuts it had finished stay in the memo, so the next call resumes
// where it stopped.
func BottlenecksMemo(ctx context.Context, s *crawler.Survey, names []string, workers int, memo *ChainMemo) (*BottleneckStats, error) {
	var stats *BottleneckStats
	var err error
	if perr := pass(ctx, s, names, true, workers, memo, func(a *chainAgg) { stats, err = a.bottlenecks() }); perr != nil {
		return nil, perr
	}
	return stats, err
}

// priceCuts prices the min-cut of each chain in s, in order: memo hits
// directly, and misses with a max-flow per digraph class
// (core.Graph.DigraphClasses): workers goroutines (0 = GOMAXPROCS)
// solve each class's first chain, and once they have stopped its cut is
// copied to the rest of the class, the one Result stored in the memo
// under every member's id. solved counts the max-flow runs, one per
// class; err joins each worker's first solve error. A cancelled ctx
// stops the workers early — the caller checks ctx.Err() — and only the
// classes they solved are copied and stored.
func priceCuts(ctx context.Context, s *crawler.Survey, cids []int32, workers int, memo *ChainMemo) (cuts []chainCut, solved int, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := s.Graph
	gen := s.Stats.Generation
	cuts = make([]chainCut, len(cids))
	var misses, missAt []int32 // missed chains, and their indices into cids
	for i, cid := range cids {
		if res, ok := memo.cut(cid, gen); ok {
			cuts[i] = chainCut{size: int32(res.Size), safe: int32(res.SafeInCut), ok: true}
		} else {
			misses = append(misses, cid)
			missAt = append(missAt, int32(i))
		}
	}
	if len(misses) == 0 {
		return cuts, 0, nil
	}
	class := g.DigraphClasses(misses)
	var reps []int32 // indices into misses of each class's first chain
	for k, r := range class {
		if int(r) == k {
			reps = append(reps, int32(k))
		}
	}

	vulnerable := func(h int32) bool { return len(s.HostVulns(h)) > 0 }
	results := make([]*mincut.Result, len(misses)) // per first chain: its memo entry
	workers = min(workers, (len(reps)+missRange-1)/missRange)
	errs := make([]error, workers) // each worker's first
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*cutScratch)
			defer scratchPool.Put(sc)
			for ctx.Err() == nil {
				lo := int(cursor.Add(missRange)) - missRange
				if lo >= len(reps) {
					return
				}
				for _, k := range reps[lo:min(lo+missRange, len(reps))] {
					c, err := sc.solve(g, misses[k], vulnerable)
					if err != nil {
						if errs[w] == nil {
							errs[w] = fmt.Errorf("analysis: min-cut of chain %d: %w", misses[k], err)
						}
						continue
					}
					cuts[missAt[k]] = chainCut{size: int32(len(c.Nodes)), safe: int32(c.SafeInCut), ok: true}
					if memo != nil {
						results[k] = sc.result(g, c)
					}
				}
			}
		}()
	}
	wg.Wait()

	// A first chain left unsolved (the pass was cancelled) or without a
	// cut leaves its members' cuts !ok, as its own.
	var batch []storedCut
	for k, r := range class {
		if c := cuts[missAt[r]]; c.ok {
			cuts[missAt[k]] = c
			if memo != nil {
				batch = append(batch, storedCut{cid: misses[k], res: results[r]})
			}
		}
	}
	memo.storeCuts(gen, batch)
	return cuts, len(reps), errors.Join(errs...)
}

// cutScratch is everything one chain's min-cut needs, reused from chain
// to chain: a worker of a pass owns one, single-name queries borrow one
// from scratchPool.
type cutScratch struct {
	d  core.Digraph
	sv mincut.Solver
}

var scratchPool = sync.Pool{New: func() any { return new(cutScratch) }}

// solve fills the chain's delegation digraph and runs both cuts on it.
// On scratch that has seen a chain as large it allocates nothing; the
// returned cut aliases the scratch.
//
//lint:hotpath
func (sc *cutScratch) solve(g *core.Graph, cid int32, vulnerable func(host int32) bool) (mincut.Cut, error) {
	if err := sc.d.Fill(g, cid); err != nil {
		return mincut.Cut{}, err
	}
	return sc.sv.Analyze(&sc.d, vulnerable)
}

// result renders the cut solve just returned as a caller-owned Result.
// The cut lists servers by name: node order follows the crawl's intern
// ids, which differ from one crawl schedule to the next.
func (sc *cutScratch) result(g *core.Graph, c mincut.Cut) *mincut.Result {
	res := &mincut.Result{
		Cut:       make([]string, len(c.Nodes)),
		Size:      len(c.Nodes),
		SafeInCut: c.SafeInCut,
		VulnInCut: c.VulnInCut,
	}
	for i, v := range c.Nodes {
		res.Cut[i] = g.Host(sc.d.Hosts[v])
	}
	sort.Strings(res.Cut)
	return res
}

// BottleneckOf runs the §3.2 min-cut analysis for a single name.
func BottleneckOf(s *crawler.Survey, name string) (*mincut.Result, error) {
	return BottleneckOfMemo(s, name, nil)
}

// ANDORHijackBound computes, via the AND/OR tree-cost fixpoint, an upper
// bound on the number of server compromises needed for a complete hijack
// of each name (exact on tree-shaped dependencies; see mincut.SolveANDOR).
// One global fixpoint prices every zone, making this the cheap
// counterpart of the per-name digraph min-cut (ablation). The input is
// assembled straight from the graph's interned id arrays — no string
// round-trips.
func ANDORHijackBound(s *crawler.Survey, names []string) []int64 {
	g := s.Graph
	nh, nz := g.NumHosts(), g.NumZones()

	in := mincut.ANDORInput{
		HostWeight: make([]int64, nh),
		ZoneNS:     make([][]int32, nz),
		HostChain:  make([][]int32, nh),
		Grounded:   make([]bool, nh),
	}
	for i := range in.HostWeight {
		in.HostWeight[i] = 1
	}
	for z := int32(0); z < int32(nz); z++ {
		in.ZoneNS[z] = g.ZoneNSIDs(z)
		// TLD servers are grounded by root glue.
		if g.ZoneIsTLD(z) {
			for _, h := range g.ZoneNSIDs(z) {
				in.Grounded[h] = true
			}
		}
	}
	for hid := int32(0); hid < int32(nh); hid++ {
		in.HostChain[hid] = g.HostDepZoneIDs(hid)
	}
	res := mincut.SolveANDOR(in)

	out := make([]int64, 0, len(names))
	for _, cid := range chainIDs(g, names) {
		if cid < 0 {
			continue
		}
		chain := g.ChainZoneIDs(cid)
		if len(chain) == 0 {
			continue
		}
		out = append(out, res.KillName(chain))
	}
	return out
}
