package analysis_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dnstrust/internal/analysis"
	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/crawler/crawltest"
	"dnstrust/internal/topology"
)

// staleChains lists the chains of prev whose TCB holds a host next
// reports late-attached or rescored: the chains a commit re-prices.
func staleChains(prev, next *crawler.Survey) []int32 {
	marked := append(slices.Clone(next.Stats.LateAttachedHosts), next.Stats.RescoredHosts...)
	var out []int32
	g := prev.Graph
	for cid := int32(0); cid < int32(g.NumChains()); cid++ {
		for _, h := range g.ChainTCBIDs(cid) {
			if slices.Contains(marked, h) {
				out = append(out, cid)
				break
			}
		}
	}
	return out
}

// digraphClasses counts the digraph classes among chains of g, by the
// rule core.Digraph documents: chains share a class when their zones
// above the authoritative one, the authoritative zone's NS set and its
// being a TLD are all equal. A chain with no zones is its own class.
func digraphClasses(g *core.Graph, chains map[int32]bool) int {
	classes := map[string]bool{}
	for cid := range chains {
		zones := g.ChainZoneIDs(cid)
		if len(zones) == 0 {
			classes[fmt.Sprint("chain ", cid)] = true
			continue
		}
		last := zones[len(zones)-1]
		classes[fmt.Sprint(zones[:len(zones)-1], g.ZoneNSIDs(last), g.ZoneIsTLD(last))] = true
	}
	return len(classes)
}

// warmCosts follows one store's generations with a memo, as an
// unretained monitor does: a cold Summary and Bottlenecks of the first,
// then after every commit the memo's Advance, the journal pruned at the
// new generation, and both analyses warm. Each warm pass must take
// exactly the steps and min-cut solves the commit implies and equal a
// cold pass. It reports how many commits late-attached and rescored
// hosts.
func warmCosts(t *testing.T, first *crawler.Survey, next func() *crawler.Survey, prune func(epoch int64)) (late, rescored int) {
	t.Helper()
	ctx := context.Background()
	memo := analysis.NewChainMemo()
	analysis.SummarizeMemo(first, first.Names, memo)
	if _, err := analysis.BottlenecksMemo(ctx, first, first.Names, 2, memo); err != nil {
		t.Fatal(err)
	}
	// priced holds the chains whose price the aggregates know: every
	// chain a name has ridden since the cold pass, less re-priced ones.
	priced := map[int32]bool{}
	for _, cid := range first.Graph.NameChainIDs() {
		priced[cid] = true
	}
	for prev, cur := first, next(); cur != nil; prev, cur = cur, next() {
		gen := cur.Stats.Generation
		if len(cur.Stats.LateAttachedHosts) > 0 {
			late++
		}
		if len(cur.Stats.RescoredHosts) > 0 {
			rescored++
		}
		pg, ng := prev.Graph, cur.Graph
		stale := staleChains(prev, cur)
		touched := ng.NamesTouchedSince(pg.Epoch())
		moved := slices.Clone(touched)
		onStale := 0 // names on touched chains, with repeats
		for _, cid := range stale {
			on := pg.NamesOnChain(cid)
			moved = append(moved, on...)
			onStale += len(on)
		}
		slices.Sort(moved)
		moved = slices.Compact(moved)
		wantSteps, solve := 0, map[int32]bool{}
		for _, n := range moved {
			if _, ok := pg.NameChainID(n); ok {
				wantSteps++
			}
			if cid, ok := ng.NameChainID(n); ok {
				wantSteps++
				if !priced[cid] || slices.Contains(stale, cid) {
					solve[cid] = true
				}
			}
		}

		memo.Advance(prev, cur)
		prune(ng.Epoch())
		steps0, solves0 := memo.FoldWork()
		sum := analysis.SummarizeMemo(cur, cur.Names, memo)
		steps1, _ := memo.FoldWork()
		bot, err := analysis.BottlenecksMemo(ctx, cur, cur.Names, 2, memo)
		if err != nil {
			t.Fatal(err)
		}
		steps2, solves2 := memo.FoldWork()
		// Each analysis folds the same names: a k-name commit costs at
		// most a step off and a step on per touched name and per name on
		// a touched chain, and exactly one step per side each moved name
		// has a chain on.
		bound := 2 * (len(touched) + onStale)
		for _, c := range []struct {
			what  string
			steps int64
		}{{"Summary", steps1 - steps0}, {"Bottlenecks", steps2 - steps1}} {
			if c.steps > int64(bound) {
				t.Fatalf("generation %d: warm %s took %d steps, over 2·(k + names on touched chains) = 2·(%d + %d)",
					gen, c.what, c.steps, len(touched), onStale)
			}
			if c.steps != int64(wantSteps) {
				t.Fatalf("generation %d: warm %s took %d steps, want %d (%d names touched, %d stale chains)",
					gen, c.what, c.steps, wantSteps, len(touched), len(stale))
			}
		}
		if got, want := solves2-solves0, digraphClasses(ng, solve); got != int64(want) {
			t.Fatalf("generation %d: %d min-cut solves, want %d (the digraph classes of the %d unpriced or re-priced chains the moved names land on)",
				gen, got, want, len(solve))
		}

		if want := analysis.SummarizeMemo(cur, cur.Names, nil); !reflect.DeepEqual(sum, want) {
			t.Fatalf("generation %d: warm Summary %+v, cold %+v", gen, sum, want)
		}
		want, err := analysis.BottlenecksMemo(ctx, cur, cur.Names, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bot, want) {
			t.Fatalf("generation %d: warm Bottlenecks %+v, cold %+v", gen, bot, want)
		}
		for _, cid := range stale {
			delete(priced, cid)
		}
		for _, cid := range ng.NameChainIDs() {
			priced[cid] = true
		}
	}
	return late, rescored
}

// TestWarmAnalysisCostsWhatChanged holds a warm Summary and Bottlenecks
// to the work a commit implies, exactly: after a cold pass, each k-name
// commit moves every touched name — the journal's, plus every name
// riding a chain the commit re-prices — off its old chain and onto its
// new one, one step each way per analysis, and solves a min-cut for
// exactly the chains those names land on that are re-priced or that no
// name rode before (new chains, and address chains of hosts). The
// count does not depend on the machine. Generations come from an engine
// crawling a generated world, and from a hand-driven stream that
// late-attaches and rescores hosts, which such crawls rarely do.
func TestWarmAnalysisCostsWhatChanged(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		ctx := context.Background()
		w, err := topology.Generate(topology.GenParams{Seed: 9, Names: 2000})
		if err != nil {
			t.Fatal(err)
		}
		tr := w.Registry.Source()
		r, err := w.Registry.Resolver(tr)
		if err != nil {
			t.Fatal(err)
		}
		e := crawler.NewEngine(r, w.Registry.ProbeFunc(tr), crawler.Config{Workers: 2})
		defer e.Close()
		const cold, k = 1200, 40
		first, err := e.Add(ctx, w.Corpus[:cold]...)
		if err != nil {
			t.Fatal(err)
		}
		lo := cold
		warmCosts(t, first, func() *crawler.Survey {
			if lo+k > len(w.Corpus) {
				return nil
			}
			// Each batch re-adds a few surveyed names beside new ones.
			s, err := e.Add(ctx, append(w.Corpus[lo:lo+k:lo+k], w.Corpus[lo-50:lo-45]...)...)
			if err != nil {
				t.Fatal(err)
			}
			lo += k
			return s
		}, e.PruneJournal)
	})
	t.Run("late attach and rescore", func(t *testing.T) {
		st := crawltest.NewStream(3)
		first := st.Next(300)
		left := 30
		late, rescored := warmCosts(t, first, func() *crawler.Survey {
			if left--; left < 0 {
				return nil
			}
			return st.Next(12)
		}, st.PruneJournal)
		t.Logf("%d of 30 commits late-attached hosts, %d rescored one", late, rescored)
		if late == 0 || rescored == 0 {
			t.Fatalf("%d commits late-attached hosts, %d rescored one: want some of each", late, rescored)
		}
	})
}

// TestCommitDoesNotWaitForFold holds a commit's Advance to the log's own
// lock: while a fold holds the aggregates, the next generation's Advance
// still returns, and its log entry is what the fold after it folds.
func TestCommitDoesNotWaitForFold(t *testing.T) {
	st := crawltest.NewStream(5)
	prev := st.Next(200)
	memo := analysis.NewChainMemo()
	analysis.SummarizeMemo(prev, prev.Names, memo)
	cur := st.Next(12)

	release := memo.HoldFold()
	done := make(chan struct{})
	go func() {
		memo.Advance(prev, cur)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		release()
		t.Fatal("Advance waited for a fold in progress")
	}
	release()
	st.PruneJournal(cur.Graph.Epoch())

	steps0, _ := memo.FoldWork()
	sum := analysis.SummarizeMemo(cur, cur.Names, memo)
	steps1, _ := memo.FoldWork()
	if steps := steps1 - steps0; steps >= int64(len(cur.Names)) {
		t.Fatalf("Summary after the commit took %d steps for %d names: the commit was not logged", steps, len(cur.Names))
	}
	if want := analysis.SummarizeMemo(cur, cur.Names, nil); !reflect.DeepEqual(sum, want) {
		t.Fatalf("warm Summary %+v, cold %+v", sum, want)
	}
}
