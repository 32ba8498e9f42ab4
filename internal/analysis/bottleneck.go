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

// BottleneckStats aggregates the Figure 7 analysis over a name set.
type BottleneckStats struct {
	// SafeCounts holds, per name, the number of non-vulnerable servers in
	// the min-cut that minimizes that number (Figure 7's x axis).
	SafeCounts []int
	// CutSizes holds, per name, the size of the minimum (unweighted)
	// vertex cut (the paper's "average min-cut is 2.5 nameservers").
	CutSizes []int
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
// Names sharing a delegation chain share a digraph, so results are
// deduplicated per interned chain id — no string keys are built on this
// path. The work is spread over workers goroutines (0 = GOMAXPROCS).
func Bottlenecks(ctx context.Context, s *crawler.Survey, names []string, workers int) (*BottleneckStats, error) {
	return BottlenecksMemo(ctx, s, names, workers, nil)
}

// chainCut is one chain's contribution to BottleneckStats.
type chainCut struct {
	size, safe int32
	ok         bool // false: the chain has no computable cut
}

// missRange is how many missed chains a worker claims at a time: at a
// few microseconds a chain, large enough that the cursor, the ctx check
// and the memo's lock cost nothing, small enough that a cancelled pass
// stops within a millisecond and the last ranges still balance.
const missRange = 64

// BottlenecksMemo is Bottlenecks backed by a persistent chain memo:
// chains whose min-cut is already cached (from an earlier pass, or an
// earlier generation that did not touch them) are aggregated without
// running max-flow, and freshly computed chains are stored for the next
// pass. With a warm memo the whole analysis degenerates to one lookup
// per name. memo may be nil (pure dedup within the call).
//
// SafeCounts and CutSizes follow the order of names, whatever the memo
// held and however the workers were scheduled. A cancelled pass returns
// ctx.Err() after its workers have stopped; the cuts it had finished stay
// in the memo, so the next call resumes where it stopped.
func BottlenecksMemo(ctx context.Context, s *crawler.Survey, names []string, workers int, memo *ChainMemo) (*BottleneckStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := s.Graph
	gen := s.Stats.Generation

	// Group names by interned chain id: identical chains give identical
	// digraphs and cuts. slot[cid] is 1 + the chain's index in cids and
	// cuts, nameSlot[i] the same for names[i] (0: not in the survey).
	slot := make([]int32, g.NumChains())
	nameSlot := make([]int32, len(names))
	cids := make([]int32, 0, min(len(names), g.NumChains()))
	for i, cid := range chainIDs(g, names) {
		if cid < 0 {
			continue
		}
		if slot[cid] == 0 {
			cids = append(cids, cid)
			slot[cid] = int32(len(cids))
		}
		nameSlot[i] = slot[cid]
	}

	// Serve memo hits directly; only misses go to the workers.
	cuts := make([]chainCut, len(cids))
	var misses []int32 // indices into cids
	for i, cid := range cids {
		if res, ok := memo.cut(cid, gen); ok {
			cuts[i] = chainCut{size: int32(res.Size), safe: int32(res.SafeInCut), ok: true}
		} else {
			misses = append(misses, int32(i))
		}
	}

	var solveErr error
	if len(misses) > 0 {
		vulnerable := newHostVuln(s).of
		workers = min(workers, (len(misses)+missRange-1)/missRange)
		errs := make([]error, workers) // each worker's first
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := scratchPool.Get().(*cutScratch)
				defer scratchPool.Put(sc)
				var batch []storedCut
				for ctx.Err() == nil {
					lo := int(cursor.Add(missRange)) - missRange
					if lo >= len(misses) {
						return
					}
					batch = batch[:0]
					for _, i := range misses[lo:min(lo+missRange, len(misses))] {
						c, err := sc.solve(g, cids[i], vulnerable)
						if err != nil {
							if errs[w] == nil {
								errs[w] = fmt.Errorf("analysis: min-cut of chain %d: %w", cids[i], err)
							}
							continue
						}
						cuts[i] = chainCut{size: int32(len(c.Nodes)), safe: int32(c.SafeInCut), ok: true}
						if memo != nil {
							batch = append(batch, storedCut{cid: cids[i], res: sc.result(g, c)})
						}
					}
					memo.storeCuts(gen, batch)
				}
			}()
		}
		wg.Wait()
		solveErr = errors.Join(errs...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	stats := &BottleneckStats{}
	for _, sl := range nameSlot {
		if sl != 0 && cuts[sl-1].ok {
			stats.Names++
		}
	}
	if stats.Names > 0 {
		stats.SafeCounts = make([]int, 0, stats.Names)
		stats.CutSizes = make([]int, 0, stats.Names)
	}
	for _, sl := range nameSlot {
		if sl == 0 || !cuts[sl-1].ok {
			continue
		}
		c := cuts[sl-1]
		stats.SafeCounts = append(stats.SafeCounts, int(c.safe))
		stats.CutSizes = append(stats.CutSizes, int(c.size))
		if c.safe == 0 {
			stats.FullyVulnerable++
		}
		if c.safe == 1 {
			stats.OneSafe++
		}
	}
	if solveErr != nil && stats.Names == 0 {
		return nil, solveErr
	}
	return stats, nil
}

// hostVuln answers Survey.Vulnerable by interned host id for one pass,
// asking the survey once per host: the same server sits in thousands of
// TCBs. Workers share it; two racing first lookups store the same answer.
type hostVuln struct {
	s     *crawler.Survey
	known []atomic.Uint32 // 0 unasked, 1 safe, 2 vulnerable
}

func newHostVuln(s *crawler.Survey) *hostVuln {
	return &hostVuln{s: s, known: make([]atomic.Uint32, s.Graph.NumHosts())}
}

func (v *hostVuln) of(host int32) bool {
	k := v.known[host].Load()
	if k == 0 {
		k = 1
		if v.s.Vulnerable(v.s.Graph.Host(host)) {
			k = 2
		}
		v.known[host].Store(k)
	}
	return k == 2
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
