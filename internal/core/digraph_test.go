package core

import (
	"context"
	"fmt"
	"testing"

	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
)

// BuilderObserver feeds one walker's events straight into a Builder — the
// event order a crawl produces. The test walks are single-goroutine, so
// no channel hand-off is needed.
type BuilderObserver struct{ B *Builder }

func (o BuilderObserver) ZoneDiscovered(apex, _ string, nsHosts []string) {
	o.B.ObserveZone(apex, nsHosts)
}

func (o BuilderObserver) ChainResolved(key string, chain []string) {
	o.B.ObserveChain(key, chain)
}

// TestDigraphMatchesReference compares the flat Digraph.Fill — one value
// reused for every chain — with the map-and-string construction it
// replaced (oracle_test.go): same node set, same Source and Sink edges,
// same successor set per host. It runs over every chain of generated
// crawls, and over seeded random event streams full of cross-zone NS
// cycles and late attaches, where after each epoch it also re-reads the
// previous epoch's graph: a host whose address chain attached since must
// still look unattached there.
func TestDigraphMatchesReference(t *testing.T) {
	var d Digraph
	for _, seed := range []int64{7, 21, 42} {
		t.Run(fmt.Sprintf("crawl/seed=%d", seed), func(t *testing.T) {
			world, err := topology.Generate(topology.GenParams{Seed: seed, Names: 500})
			if err != nil {
				t.Fatal(err)
			}
			r, err := world.Registry.Resolver(nil)
			if err != nil {
				t.Fatal(err)
			}
			w := resolver.NewWalker(r)
			b := NewBuilder(len(world.Corpus))
			w.SetObserver(BuilderObserver{b})
			for _, n := range world.Corpus {
				if chain, err := w.WalkName(context.Background(), n); err != nil {
					b.Fail(n, err)
				} else {
					b.Complete(n, chain)
				}
			}
			g := b.Finish()
			if n := checkDigraphs(t, g, &d, allChains(g)); n < 300 {
				t.Fatalf("compared %d chains of %d, want at least 300", n, g.NumChains())
			}
		})
	}

	t.Run("stream", func(t *testing.T) {
		seed := propertySeed.Add(1)
		t.Logf("seed %d", seed)
		w := newRandomWorld(seed, 600)
		g := w.epoch(t, 300, 0.3, 0.05)
		checkDigraphs(t, g, &d, allChains(g))
		hidden := 0
		for e := 0; e < 40; e++ {
			prev := g
			g = w.epoch(t, 1+w.rng.Intn(12), 0.3, 0.1)
			changed := g.ChainsChangedSince(prev.epoch)
			checkDigraphs(t, g, &d, changed)
			// The same chains as the previous epoch still sees them.
			var old []int32
			for _, cid := range changed {
				if int(cid) < prev.NumChains() {
					old = append(old, cid)
					if hasHiddenAttach(prev, cid) {
						hidden++
					}
				}
			}
			checkDigraphs(t, prev, &d, old)
			if e%10 == 9 {
				checkDigraphs(t, g, &d, allChains(g))
			}
			w.b.TakeLateAttached()
		}
		if w.lateEpochs < 5 || hidden == 0 {
			t.Fatalf("%d late epochs, %d chains re-read with a member's attach hidden; the stream does not exercise hidden attaches", w.lateEpochs, hidden)
		}
	})
}

// hasHiddenAttach reports whether some TCB member of the chain has an
// address chain in the store that g's epoch must not see yet.
func hasHiddenAttach(g *Graph, cid int32) bool {
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	for _, h := range g.chainTCB[cid] {
		if g.st.hostChainAt[h] > g.epoch {
			return true
		}
	}
	return false
}

// TestDigraphFillResetsScratch pins the invariant Fill's whole-graph
// scratch relies on: after any Fill, failed ones included, it is all zero
// again.
func TestDigraphFillResetsScratch(t *testing.T) {
	w := newRandomWorld(1, 200)
	g := w.epoch(t, 150, 0.3, 0.05)
	var d Digraph
	for _, cid := range allChains(g) {
		_ = d.Fill(g, cid) // an empty chain's error is part of the sweep
		for h, l := range d.local {
			if l != 0 {
				t.Fatalf("chain %d: local[%d] = %d left behind", cid, h, l)
			}
		}
		for z, seen := range d.zoneSeen {
			if seen {
				t.Fatalf("chain %d: zoneSeen[%d] left behind", cid, z)
			}
		}
	}
}
