package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

// randomWorld is a seeded synthetic DNS the property test crawls in
// random order. Every domain zone lists one to three NS hosts that live
// under random *other* domains (or its own), so the zone dependency
// digraph is full of cross-zone cycles; a host's address chain may be
// delivered in the batch that discovers it or many epochs later, after
// the zone listing it has been published — the late attach that is the
// only way an already-finalized zone's closure can change.
type randomWorld struct {
	rng  *rand.Rand
	b    *Builder
	tlds int
	doms int

	// nsOf[d] are the home domains of domain d's NS hosts.
	nsOf [][]int
	// zoneSeen/hostSeen record what has been fed to the builder;
	// deferred holds hosts whose zone was observed but whose address
	// chain has not been delivered yet.
	zoneSeen map[string]bool
	hostSeen map[string]bool
	deferred []int
	// lateEpochs counts epochs finished with a non-empty late set.
	lateEpochs int
}

func newRandomWorld(seed int64, doms int) *randomWorld {
	w := &randomWorld{
		rng:      rand.New(rand.NewSource(seed)),
		b:        NewBuilder(0),
		tlds:     6,
		doms:     doms,
		nsOf:     make([][]int, doms),
		zoneSeen: map[string]bool{},
		hostSeen: map[string]bool{},
	}
	for d := range w.nsOf {
		for k := 1 + w.rng.Intn(3); k > 0; k-- {
			home := d
			switch r := w.rng.Intn(10); {
			case r < 2:
				home = w.rng.Intn(doms) // anywhere: long-range cycles
			case r < 6:
				home = (d + 1 + w.rng.Intn(3)) % doms // neighbours: short cycles
			}
			w.nsOf[d] = append(w.nsOf[d], home)
		}
	}
	return w
}

func (w *randomWorld) tld(d int) string     { return fmt.Sprintf("t%d", d%w.tlds) }
func (w *randomWorld) dom(d int) string     { return fmt.Sprintf("d%d.%s", d, w.tld(d)) }
func (w *randomWorld) host(d int) string    { return "ns." + w.dom(d) }
func (w *randomWorld) chain(d int) []string { return []string{w.tld(d), w.dom(d)} }

// observeTLD feeds TLD k's zone cut. Its servers live under the next
// TLD, so the TLD layer is one cycle; one of the two never resolves (a
// host without an address chain, forever).
func (w *randomWorld) observeTLD(k int) {
	if t := w.tld(k); !w.zoneSeen[t] {
		w.zoneSeen[t] = true
		next := w.tld(k + 1)
		w.b.ObserveZone(t, []string{"a.nic." + next, "b.nic." + next})
		w.observeTLD(k + 1)
		w.b.ObserveChain("a.nic."+next, []string{next})
	}
}

// observeDomain feeds domain d's zone cut in the walker's causal order:
// parent first, and for each NS host either its address chain now — after
// the zones on that chain, recursively — or not yet.
func (w *randomWorld) observeDomain(d int, deferProb float64) {
	if w.zoneSeen[w.dom(d)] {
		return
	}
	w.observeTLD(d)
	w.zoneSeen[w.dom(d)] = true
	hosts := make([]string, len(w.nsOf[d]))
	for i, home := range w.nsOf[d] {
		hosts[i] = w.host(home)
	}
	w.b.ObserveZone(w.dom(d), hosts)
	for _, home := range w.nsOf[d] {
		if w.hostSeen[w.host(home)] {
			continue
		}
		w.hostSeen[w.host(home)] = true
		if w.rng.Float64() < deferProb {
			w.deferred = append(w.deferred, home)
		} else {
			w.resolveHost(home, deferProb)
		}
	}
}

// resolveHost delivers the address chain of domain home's nameserver.
func (w *randomWorld) resolveHost(home int, deferProb float64) {
	w.observeDomain(home, deferProb)
	w.b.ObserveChain(w.host(home), w.chain(home))
}

// epoch feeds one batch — names new names, a share of the deferred host
// chains, some failures and recoveries — and finishes it against the
// oracle. It returns the finished graph.
func (w *randomWorld) epoch(t testing.TB, names int, deferProb, resolveShare float64) *Graph {
	w.feed(names, deferProb, resolveShare)
	return w.finish(t)
}

// feed feeds one batch without finishing it.
func (w *randomWorld) feed(names int, deferProb, resolveShare float64) {
	for i := 0; i < names; i++ {
		d := w.rng.Intn(w.doms)
		w.observeDomain(d, deferProb)
		name := fmt.Sprintf("w%d.%s", w.rng.Intn(4), w.dom(d))
		switch r := w.rng.Intn(20); {
		case r == 0:
			w.b.Fail(name, errors.New("walk failed"))
		case r == 1:
			// Fails, then completes within the same batch.
			w.b.Fail(name, errors.New("transient"))
			w.b.Complete(name, w.chain(d))
		case r == 2:
			// Re-chains onto another domain's chain.
			w.b.Complete(name, w.chain((d+1)%w.doms))
			w.observeDomain((d+1)%w.doms, deferProb)
		default:
			w.b.Complete(name, w.chain(d))
		}
	}
	waiting := w.deferred
	w.deferred = nil
	for _, home := range waiting {
		if w.rng.Float64() < resolveShare {
			w.resolveHost(home, deferProb)
		} else {
			w.deferred = append(w.deferred, home)
		}
	}
}

// finish finishes the fed batch against the oracle.
func (w *randomWorld) finish(t testing.TB) *Graph {
	if len(w.b.lateAttached) > 0 {
		w.lateEpochs++
	}
	prev := w.b.prev
	g := finishChecked(t, w.b)
	checkNamesFrom(t, g, prev)
	return g
}

// checkNamesFrom asserts the journal-merged name list equals a scan of
// the whole name table at g's epoch.
func checkNamesFrom(t testing.TB, g, prev *Graph) {
	t.Helper()
	var want []string
	g.st.mu.RLock()
	for name := range g.st.base {
		want = append(want, name)
	}
	for name, vs := range g.st.names {
		if v, ok := vs.at(g.epoch); ok && v.present {
			want = append(want, name)
		}
	}
	g.st.mu.RUnlock()
	sort.Strings(want)
	got := g.NamesFrom(prev)
	if len(got) != g.NumNames() || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("epoch %d: NamesFrom has %d names, the name table %d (NumNames %d)", g.epoch, len(got), len(want), g.NumNames())
	}
}

// largestSCC reports the size of the largest strongly connected set of
// zones, read off the closure aliasing (members of one SCC share a slice).
func largestSCC(g *Graph) int {
	sizes := map[*int32]int{}
	best := 0
	for _, c := range g.closure {
		if len(c) == 0 {
			continue
		}
		sizes[&c[0]]++
		best = max(best, sizes[&c[0]])
	}
	return best
}

// propertySeed advances per invocation, so `go test -count=3` runs three
// different event streams; the seed is logged for replay.
var propertySeed atomic.Int64

// TestIncrementalMatchesWholeGraph feeds random event streams — one
// large epoch, then many small ones — and after every FinishEpoch
// compares closure, zoneAdj, chainTCB and chainStamp with the whole-graph
// pass, at a scale where SCCs and late attaches occur together.
func TestIncrementalMatchesWholeGraph(t *testing.T) {
	seed := propertySeed.Add(1)
	t.Logf("seed %d", seed)
	const doms = 4000
	w := newRandomWorld(seed, doms)
	finishChecked(t, w.b) // the Monitor's pre-crawl epoch on the empty store

	g := w.epoch(t, 1800, 0.3, 0.05)
	if g.NumZones() < 2000 {
		t.Fatalf("first epoch discovered %d zones, want at least 2000", g.NumZones())
	}
	for e := 0; e < 60; e++ {
		names := 1 + w.rng.Intn(20)
		if e%15 == 14 {
			names = 300 // an occasional medium batch
		}
		g = w.epoch(t, names, 0.3, 0.04)
		if e%3 != 0 {
			w.b.TakeLateAttached() // what a Monitor does after every commit
		}
		if e%11 == 5 {
			g = w.epoch(t, 0, 0, 0) // an epoch that changes nothing
		}
	}
	if w.lateEpochs < 10 {
		t.Fatalf("only %d epochs had a late attach; the stream does not exercise the late path", w.lateEpochs)
	}
	if scc := largestSCC(g); scc < 10 {
		t.Fatalf("largest SCC has %d zones; the stream does not exercise cycles", scc)
	}
	t.Logf("%d zones, %d hosts, %d chains, %d names; %d late epochs, largest SCC %d zones",
		g.NumZones(), g.NumHosts(), g.NumChains(), g.NumNames(), w.lateEpochs, largestSCC(g))
}
