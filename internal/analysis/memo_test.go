package analysis

import (
	"context"
	"reflect"
	"testing"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
)

// memoWorld builds a two-chain survey: chain A (com, x.com) and chain B
// (com, y.com), each carrying one name, stamped with the given
// generation.
func memoWorld(t *testing.T, gen int64) *crawler.Survey {
	t.Helper()
	b := core.NewBuilder(0)
	b.ObserveZone("com", []string{"a.ns.com"})
	b.ObserveChain("a.ns.com", []string{"com"})
	b.ObserveZone("x.com", []string{"ns.x.com"})
	b.ObserveChain("ns.x.com", []string{"com", "x.com"})
	b.ObserveZone("y.com", []string{"ns.y.com", "ns.offsite.org"})
	b.ObserveChain("ns.y.com", []string{"com", "y.com"})
	b.Complete("www.x.com", []string{"com", "x.com"})
	b.Complete("www.y.com", []string{"com", "y.com"})
	s := crawler.FromGraph(b.Finish())
	s.Stats.Generation = gen
	return s
}

// TestChainMemoServesWarmPass checks the core promise: a second
// analysis pass over the same generation is served from the memo and
// returns identical results.
func TestChainMemoServesWarmPass(t *testing.T) {
	s := memoWorld(t, 1)
	memo := NewChainMemo()
	ctx := context.Background()

	cold, err := BottlenecksMemo(ctx, s, s.Names, 2, memo)
	if err != nil {
		t.Fatal(err)
	}
	cidX, _ := s.Graph.NameChainID("www.x.com")
	if _, ok := memo.cut(cidX, 1); !ok {
		t.Fatal("cold pass did not populate the memo")
	}
	warm, err := BottlenecksMemo(ctx, s, s.Names, 2, memo)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Names != cold.Names || warm.FullyVulnerable != cold.FullyVulnerable {
		t.Errorf("warm pass differs: %+v vs %+v", warm, cold)
	}

	sumCold := SummarizeMemo(s, s.Names, memo)
	sumWarm := SummarizeMemo(s, s.Names, memo)
	if !reflect.DeepEqual(sumCold.VulnPerTCB, sumWarm.VulnPerTCB) || sumCold.Names != sumWarm.Names {
		t.Error("memoized summary differs between passes")
	}

	r1, err := BottleneckOfMemo(s, "www.x.com", memo)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := BottleneckOfMemo(s, "www.x.com", memo)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("memo must hand out caller-owned clones, not the cached result")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("memoized bottleneck differs: %+v vs %+v", r1, r2)
	}
}

// TestChainMemoFlushesOnLateOrRescored checks the flush: a commit that
// reports a late-attached or a rescored host drops every cut, for old
// and new generations alike, and a view older than the flush neither
// reads a cut stored after it nor stores one; a commit that reports
// neither keeps every cut serving old and new views.
func TestChainMemoFlushesOnLateOrRescored(t *testing.T) {
	ctx := context.Background()
	s1 := memoWorld(t, 1)
	cidX, _ := s1.Graph.NameChainID("www.x.com")
	cidY, _ := s1.Graph.NameChainID("www.y.com")
	// ns.x.com is a member of chain X's TCB but not of chain Y's.
	hid, ok := s1.Graph.HostID("ns.x.com")
	if !ok {
		t.Fatal("ns.x.com not interned")
	}
	served := func(memo *ChainMemo, cid int32, gen int64) bool {
		_, ok := memo.cut(cid, gen)
		return ok
	}
	warm := func(t *testing.T) *ChainMemo {
		memo := NewChainMemo()
		if _, err := BottlenecksMemo(ctx, s1, s1.Names, 1, memo); err != nil {
			t.Fatal(err)
		}
		if !served(memo, cidX, 1) || !served(memo, cidY, 1) {
			t.Fatal("cold pass did not populate the memo")
		}
		return memo
	}

	for _, c := range []struct {
		what string
		mark func(*crawler.CrawlStats)
	}{
		{"late-attached", func(st *crawler.CrawlStats) { st.LateAttachedHosts = []int32{hid} }},
		{"rescored", func(st *crawler.CrawlStats) { st.RescoredHosts = []int32{hid} }},
	} {
		t.Run(c.what, func(t *testing.T) {
			memo := warm(t)
			s2 := memoWorld(t, 2)
			c.mark(&s2.Stats)
			memo.Advance(s1, s2)
			for _, gen := range []int64{1, 2} {
				for _, cid := range []int32{cidX, cidY} {
					if served(memo, cid, gen) {
						t.Errorf("a %s host left chain %d's cut serving generation %d", c.what, cid, gen)
					}
				}
			}

			// A cut computed against generation 2 serves generation 2,
			// never the generation-1 view.
			if _, err := BottleneckOfMemo(s2, "www.x.com", memo); err != nil {
				t.Fatal(err)
			}
			if !served(memo, cidX, 2) {
				t.Error("cut computed after the flush not served at its own generation")
			}
			if served(memo, cidX, 1) {
				t.Error("generation-1 view served a cut stored after the flush")
			}
			// A generation-1 view computes its cut and stores nothing.
			if _, err := BottleneckOfMemo(s1, "www.y.com", memo); err != nil {
				t.Fatal(err)
			}
			if served(memo, cidY, 1) || served(memo, cidY, 2) {
				t.Error("a view older than the flush stored its cut")
			}
		})
	}

	t.Run("neither", func(t *testing.T) {
		memo := warm(t)
		memo.Advance(s1, memoWorld(t, 2))
		for _, gen := range []int64{1, 2} {
			for _, cid := range []int32{cidX, cidY} {
				if !served(memo, cid, gen) {
					t.Errorf("a commit with neither kind of host dropped chain %d's cut for generation %d", cid, gen)
				}
			}
		}
	})
}
