package analysis

import (
	"context"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
)

// chainAgg is one whole-population analysis — Summary's, or Figure 7's
// when cuts is set — held as dense per-chain-id columns: how many of the
// population's names ride each chain, and the values the chain was last
// priced at. Every total the analysis reports is a sum over names of
// their chain's price, plus, for Summary, each name's owned servers (the
// one per-name term: it depends on the name's registered domain). So a
// name moves with one step off its old chain and one onto its new one,
// and a pass over any population is one step per name from an empty
// aggregate. Distributions are histograms by value, rendered as CDFs.
type chainAgg struct {
	cuts bool
	// survey is the generation the columns describe (nil while empty).
	survey *crawler.Survey

	names  []int32 // per chain: names of the population riding it
	priced []bool  // per chain: price holds for survey's generation
	price  []chainPrice

	owners ownerIndex // Summary: hosts by registered domain

	n int // names counted: resolved (Summary), with a computable cut (cuts)
	// Summary: TCB size and vulnerable TCB members per name; cuts: safe
	// servers in the cut and cut size.
	h1, h2 hist
	// Summary: names with a vulnerable TCB member, names whose chain has
	// zones, and those names' direct and owned servers.
	affected, counted, directSum, ownedSum int
	// cuts: names whose cut holds no safe server, or exactly one; err is
	// why the latest uncomputable chain has no cut.
	fully, oneSafe int
	err            error

	steps, solves int64 // work of the latest fold
}

// chainPrice is what every name riding a chain adds to an aggregate.
type chainPrice struct {
	size, vuln int32 // TCB members, and how many are vulnerable
	direct     int32 // NS set of the chain's own zone; -1: the chain has no zones
	cut, safe  int32 // min-cut size and safe servers in it; cut -1: no computable cut
}

func newChainAgg(cuts bool) *chainAgg { return &chainAgg{cuts: cuts} }

// pass runs one analysis (cuts: Bottlenecks; otherwise Summary) over
// names and hands the aggregate to read: the memo's whole-survey
// aggregate when names is the survey's own list, else a fold from an
// empty aggregate.
func pass(ctx context.Context, s *crawler.Survey, names []string, cuts bool, workers int, memo *ChainMemo, read func(*chainAgg)) error {
	if memo != nil && ownList(s.Graph, names) {
		return memo.whole(ctx, s, cuts, workers, read)
	}
	a := newChainAgg(cuts)
	if err := a.fold(ctx, s, names, chainIDs(s.Graph, names), workers, memo); err != nil {
		return err
	}
	read(a)
	return nil
}

// fold moves the names of list from the aggregate's generation to the
// survey to: each steps off the chain it rode there (none on an empty
// aggregate) and onto cids[i], its chain in to (-1: not in to). A name
// appearing twice counts twice — list passes keep a caller's duplicates.
// Every price the aggregate holds must hold in to too: the memo never
// folds across a commit that could change one. The chains names land on
// that have no price yet are priced before anything moves — min-cuts
// through memo, misses solved on workers goroutines — so a cancelled
// ctx returns its error with the aggregate untouched.
func (a *chainAgg) fold(ctx context.Context, to *crawler.Survey, list []string, cids []int32, workers int, memo *ChainMemo) error {
	g := to.Graph
	a.grow(g.NumChains())
	a.steps, a.solves = 0, 0

	var need []int32
	for _, cid := range cids {
		if cid >= 0 && !a.priced[cid] {
			a.priced[cid] = true // queued; its price is set below
			need = append(need, cid)
		}
	}
	prices, err := a.priceChains(ctx, to, need, workers, memo)
	if err != nil {
		for _, cid := range need {
			a.priced[cid] = false
		}
		return err
	}

	if !a.cuts {
		a.owners.extend(g)
	}
	if a.survey != nil {
		from := a.survey.Graph
		for _, name := range list {
			if cid, ok := from.NameChainID(name); ok {
				a.step(from, name, cid, -1)
			}
		}
	}
	for i, cid := range need {
		a.price[cid] = prices[i]
	}
	for i, name := range list {
		if cid := cids[i]; cid >= 0 {
			a.step(g, name, cid, 1)
		}
	}
	a.survey = to
	return nil
}

// grow extends the per-chain columns to n chains.
func (a *chainAgg) grow(n int) {
	if d := n - len(a.names); d > 0 {
		a.names = append(a.names, make([]int32, d)...)
		a.priced = append(a.priced, make([]bool, d)...)
		a.price = append(a.price, make([]chainPrice, d)...)
	}
}

// step moves one name onto (d = 1) or off (d = -1) chain cid of graph g,
// at the chain's current price.
func (a *chainAgg) step(g *core.Graph, name string, cid int32, d int) {
	a.steps++
	a.names[cid] += int32(d)
	p := &a.price[cid]
	if a.cuts {
		if p.cut < 0 {
			return
		}
		a.n += d
		a.h1.add(int(p.safe), d)
		a.h2.add(int(p.cut), d)
		switch p.safe {
		case 0:
			a.fully += d
		case 1:
			a.oneSafe += d
		}
		return
	}
	a.n += d
	a.h1.add(int(p.size), d)
	a.h2.add(int(p.vuln), d)
	if p.vuln > 0 {
		a.affected += d
	}
	if p.direct < 0 {
		return
	}
	a.counted += d
	a.directSum += d * int(p.direct)
	a.ownedSum += d * a.owners.count(name, g.ChainTCBIDs(cid))
}

// priceChains prices the given chains in s, in order, one chain per
// digraph class (core.Graph.DigraphClasses): the members of a class
// share a TCB and an authoritative NS set, so a Summary price too, and
// a min-cut.
func (a *chainAgg) priceChains(ctx context.Context, s *crawler.Survey, cids []int32, workers int, memo *ChainMemo) ([]chainPrice, error) {
	prices := make([]chainPrice, len(cids))
	if !a.cuts {
		g := s.Graph
		class := g.DigraphClasses(cids)
		for i, cid := range cids {
			if r := class[i]; int(r) != i {
				prices[i] = prices[r]
				continue
			}
			size, vuln := vulnCount(s, cid)
			p := chainPrice{size: int32(size), vuln: int32(vuln), direct: -1}
			if chain := g.ChainZoneIDs(cid); len(chain) > 0 {
				p.direct = int32(len(g.ZoneNSIDs(chain[len(chain)-1])))
			}
			prices[i] = p
		}
		return prices, nil
	}
	cuts, solved, solveErr := priceCuts(ctx, s, cids, workers, memo)
	a.solves += int64(solved)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if solveErr != nil {
		a.err = solveErr
	}
	for i, c := range cuts {
		prices[i] = chainPrice{cut: -1}
		if c.ok {
			prices[i].cut, prices[i].safe = c.size, c.safe
		}
	}
	return prices, nil
}

// summary renders a Summary aggregate.
func (a *chainAgg) summary() *Summary {
	ownedMean, directMean := 0.0, 0.0
	if a.counted > 0 {
		ownedMean = float64(a.ownedSum) / float64(a.counted)
		directMean = float64(a.directSum) / float64(a.counted)
	}
	return &Summary{
		Names:             a.n,
		Servers:           a.survey.Graph.NumHosts(),
		VulnerableServers: a.survey.VulnerableHosts(),
		AffectedNames:     a.affected,
		TCB:               a.h1.cdf(),
		VulnPerTCB:        a.h2.cdf(),
		DirectMean:        directMean,
		OwnedMean:         ownedMean,
	}
}

// bottlenecks renders a cuts aggregate; with no computable cut at all it
// reports why instead.
func (a *chainAgg) bottlenecks() (*BottleneckStats, error) {
	if a.n == 0 && a.err != nil {
		return nil, a.err
	}
	return &BottleneckStats{
		SafeCounts:      a.h1.cdf(),
		CutSizes:        a.h2.cdf(),
		FullyVulnerable: a.fully,
		OneSafe:         a.oneSafe,
		Names:           a.n,
	}, nil
}
