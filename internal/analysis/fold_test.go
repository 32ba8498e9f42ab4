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
// new generation, and both analyses. Each pass must take exactly the
// steps and min-cut solves the commit implies — a warm fold, or a cold
// pass after a commit that flushes the memo — and equal a cold pass. It
// reports how many commits late-attached and rescored hosts.
func warmCosts(t *testing.T, first *crawler.Survey, next func() *crawler.Survey, prune func(epoch int64)) (late, rescored int) {
	t.Helper()
	ctx := context.Background()
	memo := analysis.NewChainMemo()
	analysis.SummarizeMemo(first, first.Names, memo)
	if _, err := analysis.BottlenecksMemo(ctx, first, first.Names, 2, memo); err != nil {
		t.Fatal(err)
	}
	// priced holds the chains whose price the aggregates know: every
	// chain a name has ridden since the last cold pass.
	priced := map[int32]bool{}
	for _, cid := range first.Graph.NameChainIDs() {
		priced[cid] = true
	}
	for prev, cur := first, next(); cur != nil; prev, cur = cur, next() {
		gen := cur.Stats.Generation
		flush := false
		if len(cur.Stats.LateAttachedHosts) > 0 {
			late++
			flush = true
		}
		if len(cur.Stats.RescoredHosts) > 0 {
			rescored++
			flush = true
		}
		pg, ng := prev.Graph, cur.Graph
		touched := ng.NamesTouchedSince(pg.Epoch())
		// A warm fold moves every touched name one step off its old
		// chain and one onto its new one, and solves the chains they
		// land on that no name rode before. A flush leaves a cold pass:
		// a step for every name with a chain, and every chain solved.
		wantSteps, solve := 0, map[int32]bool{}
		if flush {
			clear(priced)
			for _, cid := range ng.NameChainIDs() {
				if cid >= 0 {
					wantSteps++
					solve[cid] = true
				}
			}
		} else {
			for _, n := range touched {
				if _, ok := pg.NameChainID(n); ok {
					wantSteps++
				}
				if cid, ok := ng.NameChainID(n); ok {
					wantSteps++
					if !priced[cid] {
						solve[cid] = true
					}
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
		for _, c := range []struct {
			what  string
			steps int64
		}{{"Summary", steps1 - steps0}, {"Bottlenecks", steps2 - steps1}} {
			// A warm k-name commit costs at most a step off and a step
			// on per touched name.
			if !flush && c.steps > int64(2*len(touched)) {
				t.Fatalf("generation %d: warm %s took %d steps, over 2·k = 2·%d", gen, c.what, c.steps, len(touched))
			}
			if c.steps != int64(wantSteps) {
				t.Fatalf("generation %d: %s took %d steps, want %d (%d names touched, flush %v)",
					gen, c.what, c.steps, wantSteps, len(touched), flush)
			}
		}
		if got, want := solves2-solves0, digraphClasses(ng, solve); got != int64(want) {
			t.Fatalf("generation %d: %d min-cut solves, want %d (the digraph classes of the %d unpriced chains the moved names land on, flush %v)",
				gen, got, want, len(solve), flush)
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
		for _, cid := range ng.NameChainIDs() {
			priced[cid] = true
		}
	}
	return late, rescored
}

// TestWarmAnalysisCostsWhatChanged holds a warm Summary and Bottlenecks
// to the work a commit implies, exactly: after a cold pass, each k-name
// commit moves every touched name (the journal's) off its old chain and
// onto its new one, one step each way per analysis, and solves a min-cut
// for exactly the digraph classes of the chains those names land on that
// no name rode before (new chains, and address chains of hosts). A
// commit that late-attaches or rescores a host flushes the memo, and
// the next pass is cold: a step per name with a chain, a solve per
// digraph class of their chains. The count does not depend on the
// machine. Generations come from an engine crawling a generated world,
// and from a hand-driven stream that late-attaches and rescores hosts,
// which such crawls rarely do.
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
// still returns, whether it logs the commit or flushes the memo. After a
// logged commit the next Summary folds the log entry; after a flushing
// one it is cold. Either way it equals the by-name pass.
func TestCommitDoesNotWaitForFold(t *testing.T) {
	st := crawltest.NewStream(5)
	prev := st.Next(200)
	memo := analysis.NewChainMemo()
	analysis.SummarizeMemo(prev, prev.Names, memo)

	logged, flushed := false, false
	for i := 0; !logged || !flushed; i++ {
		if i == 100 {
			t.Fatalf("100 commits: logged one %v, flushed on one %v: want both", logged, flushed)
		}
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
		steps := steps1 - steps0
		// The by-name pass resolves every name by lookup, from an empty
		// aggregate.
		if want := analysis.Summarize(cur, slices.Clone(cur.Names)); !reflect.DeepEqual(sum, want) {
			t.Fatalf("generation %d: Summary %+v, by name %+v", cur.Stats.Generation, sum, want)
		}
		if len(cur.Stats.LateAttachedHosts)+len(cur.Stats.RescoredHosts) > 0 {
			flushed = true
			chained := 0
			for _, cid := range cur.Graph.NameChainIDs() {
				if cid >= 0 {
					chained++
				}
			}
			if steps != int64(chained) {
				t.Fatalf("generation %d: Summary after a flushing commit took %d steps, want a cold pass's %d",
					cur.Stats.Generation, steps, chained)
			}
		} else {
			logged = true
			if steps >= int64(len(cur.Names)) {
				t.Fatalf("generation %d: Summary after the commit took %d steps for %d names: the commit was not logged",
					cur.Stats.Generation, steps, len(cur.Names))
			}
		}
		prev = cur
	}
}
