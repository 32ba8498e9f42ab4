package crawler_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/mincut"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
)

// TestSharedCrawlMatchesIsolatedWalks is the equivalence property test
// for the crawl engine. A parallel crawl answers every name from one
// walker whose zone, chain and address caches, single-flight groups and
// query memo are shared by all workers and all names; the reference
// shares nothing: each name is walked alone, by a fresh Walker feeding a
// fresh Builder on the test goroutine. On randomized generator worlds
// the two must agree on everything observable through names — each
// name's TCB host set, the min-cut size and minimized safe count (graph
// invariants) on every 13th name, and the set of hosts discovered
// overall.
func TestSharedCrawlMatchesIsolatedWalks(t *testing.T) {
	for _, seed := range []int64{7, 21, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ctx := context.Background()
			world, err := topology.Generate(topology.GenParams{Seed: seed, Names: 500})
			if err != nil {
				t.Fatal(err)
			}
			tr := world.Registry.Source()
			r, err := world.Registry.Resolver(tr)
			if err != nil {
				t.Fatal(err)
			}
			s, err := crawler.Run(ctx, r, world.Corpus,
				world.Registry.ProbeFunc(tr), crawler.Config{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			isolatedHosts := map[string]bool{}
			for i, n := range world.Corpus {
				w := resolver.NewWalker(r)
				b := core.NewBuilder(1)
				w.SetObserver(builderObserver{b})
				chain, werr := w.WalkName(ctx, n)
				if (werr != nil) != (s.Failed[n] != nil) {
					t.Fatalf("walk(%s) error mismatch: isolated %v, crawl %v", n, werr, s.Failed[n])
				}
				if werr != nil {
					b.Fail(n, werr)
				} else {
					b.Complete(n, chain)
				}
				alone := b.Finish()
				for _, h := range alone.Hosts() {
					isolatedHosts[h] = true
				}
				if werr != nil {
					continue
				}

				want, err1 := alone.TCB(n)
				got, err2 := s.Graph.TCB(n)
				if err1 != nil || err2 != nil {
					t.Fatalf("TCB(%s): isolated %v, crawl %v", n, err1, err2)
				}
				if !reflect.DeepEqual(got, want) { // TCB returns sorted host names
					t.Fatalf("TCB(%s) differs:\ncrawl    %v\nisolated %v", n, got, want)
				}

				if i%13 != 0 {
					continue
				}
				ares, err1 := minCut(alone, n, s)
				sres, err2 := minCut(s.Graph, n, s)
				if err1 != nil || err2 != nil {
					t.Fatalf("min-cut(%s): isolated %v, crawl %v", n, err1, err2)
				}
				if len(sres.Nodes) != len(ares.Nodes) || sres.SafeInCut != ares.SafeInCut {
					t.Fatalf("min-cut(%s) differs: size %d/%d, safe %d/%d",
						n, len(sres.Nodes), len(ares.Nodes), sres.SafeInCut, ares.SafeInCut)
				}
			}

			want := make([]string, 0, len(isolatedHosts))
			for h := range isolatedHosts {
				want = append(want, h)
			}
			sort.Strings(want)
			got := append([]string(nil), s.Graph.Hosts()...)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("host sets differ: crawl %d hosts, isolated walks %d", len(got), len(want))
			}
			t.Logf("%d names, %d hosts", len(s.Names), len(got))
		})
	}
}

// minCut runs the bottleneck analysis of name on g, which may intern
// hosts under other ids than the survey scoring them: vulnerability goes
// by host name.
func minCut(g *core.Graph, name string, s *crawler.Survey) (mincut.Cut, error) {
	cid, ok := g.NameChainID(name)
	if !ok {
		return mincut.Cut{}, fmt.Errorf("%s not in graph", name)
	}
	var d core.Digraph
	if err := d.Fill(g, cid); err != nil {
		return mincut.Cut{}, err
	}
	var sv mincut.Solver
	return sv.Analyze(&d, func(h int32) bool { return s.Vulnerable(g.Host(h)) })
}

// builderObserver feeds one walker's events straight into a Builder; the
// isolated walks are single-goroutine, so no channel hand-off is needed.
type builderObserver struct{ b *core.Builder }

func (o builderObserver) ZoneDiscovered(apex, _ string, nsHosts []string) {
	o.b.ObserveZone(apex, nsHosts)
}

func (o builderObserver) ChainResolved(key string, chain []string) {
	o.b.ObserveChain(key, chain)
}
