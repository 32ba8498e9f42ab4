package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"dnstrust/internal/snapshot"
)

// TestSetPoolConfirmsHashMatch holds the pool to content, not hashes:
// two different sets of one length interned under one hash come back as
// two slices, each with its own content, and a set interned again comes
// back as the first copy. A pooled set is a clipped copy, so the caller
// may reuse its buffer.
func TestSetPoolConfirmsHashMatch(t *testing.T) {
	var p setPool
	a := p.internHashed(7, []int32{1, 2, 3})
	b := p.internHashed(7, []int32{1, 2, 4})
	if !int32sEqual(a, []int32{1, 2, 3}) || !int32sEqual(b, []int32{1, 2, 4}) {
		t.Fatalf("colliding sets came back as %v and %v, want [1 2 3] and [1 2 4]", a, b)
	}
	if again := p.internHashed(7, []int32{1, 2, 4}); &again[0] != &b[0] {
		t.Fatal("a set interned twice came back as two slices")
	}

	buf := make([]int32, 3, 16)
	copy(buf, []int32{5, 6, 7})
	c := p.intern(buf)
	buf[0] = 9
	if c[0] != 5 || cap(c) != len(c) {
		t.Fatalf("pooled set %v (cap %d) shares the caller's buffer or is not clipped", c, cap(c))
	}
	if p.intern(nil) != nil || p.intern([]int32{}) != nil {
		t.Fatal("the empty set must intern as nil")
	}
}

// trustSets collects the non-empty closures and TCBs of a set of graphs.
// Runs in views (restored sets, which are never pooled) are skipped.
type trustSets struct {
	backings map[sliceRun]bool   // every backing run seen
	contents map[string]sliceRun // content -> first backing run seen
	ids      int                 // ids over the distinct contents
	views    map[sliceRun]bool
}

type sliceRun struct {
	p *int32
	n int
}

func newTrustSets() *trustSets {
	return &trustSets{backings: map[sliceRun]bool{}, contents: map[string]sliceRun{}}
}

func idKey(s []int32) string {
	b := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}

// add records every non-empty entry of the tables and fails when one
// content is held by two backing arrays, or one backing array holds two
// contents (it was written after it was shared).
func (ts *trustSets) add(t *testing.T, what string, tables ...[][]int32) {
	t.Helper()
	for _, table := range tables {
		for i, s := range table {
			if len(s) == 0 {
				continue
			}
			r, k := sliceRun{&s[0], len(s)}, idKey(s)
			if ts.views[r] {
				continue
			}
			ts.backings[r] = true
			first, ok := ts.contents[k]
			if !ok {
				ts.contents[k] = r
				ts.ids += len(s)
				continue
			}
			if first != r {
				t.Fatalf("%s: entry %d holds %v on its own backing array; an equal set is stored elsewhere", what, i, s)
			}
		}
	}
	if len(ts.backings) != len(ts.contents) {
		t.Fatalf("%s: %d backing arrays for %d distinct sets", what, len(ts.backings), len(ts.contents))
	}
}

// writtenPool reads the pool length of an id-table section of a
// snapshot file: the count of ids its runs hold.
func writtenPool(t *testing.T, data []byte, sec string) int {
	t.Helper()
	f, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	payload := f.Section(sec)
	if len(payload) < 16 {
		t.Fatalf("section %s: %d bytes", sec, len(payload))
	}
	return int(binary.LittleEndian.Uint64(payload[8:]))
}

// runIDs is the count of ids over the distinct backing runs of a table:
// the pool length an identity-deduplicating write of it emits.
func runIDs(table [][]int32) int {
	seen := map[sliceRun]bool{}
	ids := 0
	for _, s := range table {
		if r := (sliceRun{unsafe.SliceData(s), len(s)}); len(s) > 0 && !seen[r] {
			seen[r] = true
			ids += len(s)
		}
	}
	return ids
}

// TestTrustSetsStoredOnce runs the seeded stream of the snapshot
// reference test (re-chains, late attaches, SCCs that form and grow,
// journal pruning, and a write → restore every tenth epoch that carries
// the stream on) and checks after every FinishEpoch that:
//
//   - closures and TCBs with equal content share one backing array,
//     across the two tables and across the epochs the builder finished
//     since it started or was restored; the four newest, as a Retain 4
//     monitor holds them, are read again after every epoch;
//   - every chain's TCB is the sorted union of its zones' closures;
//   - a write emits one pool run per backing array, and restore →
//     re-export emits the same pools: for a builder never restored the
//     core/closure and core/chaintcb pool lengths equal the ids of the
//     distinct contents of each table.
//
// Restored sets are views into the file and are not pooled, so a set
// built after a restore may equal a restored view on its own backing:
// the sharing checks skip the views, and a restored builder's pools are
// held to its backing runs. At the end the pool must hold exactly the
// distinct sets built since the last restore; the test holds all of
// them (its records point at them), so none was collected.
func TestTrustSetsStoredOnce(t *testing.T) {
	seed := propertySeed.Add(1)
	t.Logf("seed %d", seed)
	const retain = 4
	w := newRandomWorld(seed, 1500)

	var window []*Graph
	views := map[sliceRun]bool{} // the sets the last restore read
	ever := newTrustSets()       // every set built since the last restore
	ever.views = views
	check := func(g *Graph) {
		t.Helper()
		window = append(window, g)
		if len(window) > retain {
			window = window[1:]
		}
		held := newTrustSets()
		held.views = views
		for _, h := range window {
			held.add(t, fmt.Sprintf("epoch %d (window to %d)", h.epoch, g.epoch), h.closure, h.chainTCB)
		}
		ever.add(t, fmt.Sprintf("epoch %d (since restore)", g.epoch), g.closure, g.chainTCB)

		for c, chain := range g.chains {
			var want []int32
			for _, z := range chain {
				want = append(want, g.closure[z]...)
			}
			sortUnique(&want)
			if !int32sEqual(g.chainTCB[c], want) {
				t.Fatalf("epoch %d: chain %d TCB %v, union of its closures %v", g.epoch, c, g.chainTCB[c], want)
			}
		}

		data := encodeWith(t, w.b, (*Builder).WriteSections)
		rb, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		again := encodeWith(t, rb, (*Builder).WriteSections)
		for _, tc := range []struct {
			sec   string
			table [][]int32
		}{{"core/closure", g.closure}, {"core/chaintcb", g.chainTCB}} {
			first, pool := writtenPool(t, data, tc.sec), writtenPool(t, again, tc.sec)
			if first != runIDs(tc.table) || pool != first {
				t.Fatalf("epoch %d: %s pool holds %d ids, %d after restore → re-export; its backing runs %d", g.epoch, tc.sec, first, pool, runIDs(tc.table))
			}
			if len(views) > 0 {
				continue
			}
			distinct := newTrustSets()
			distinct.add(t, fmt.Sprintf("epoch %d %s", g.epoch, tc.sec), tc.table)
			if first != distinct.ids {
				t.Fatalf("epoch %d: %s pool holds %d ids, its distinct sets %d", g.epoch, tc.sec, first, distinct.ids)
			}
		}
		if g.epoch%10 == 9 {
			// The stream carries on from the restored builder. Its graph
			// joins no window, and its sets are views.
			w.b = rb
			window = window[:0]
			clear(views)
			for _, table := range [][][]int32{rb.prev.closure, rb.prev.chainTCB} {
				for _, s := range table {
					if len(s) > 0 {
						views[sliceRun{&s[0], len(s)}] = true
					}
				}
			}
			clear(ever.backings)
			clear(ever.contents)
		}
	}

	finishChecked(t, w.b) // the Monitor's pre-crawl epoch on the empty store
	w.feed(700, 0.3, 0.05)
	b := w.b
	b.ObserveZone("scc", []string{"ns.a.scc"})
	b.ObserveZone("a.scc", []string{"ns.b.scc", "ns.c.scc"})
	b.ObserveZone("b.scc", []string{"ns.a.scc"})
	b.ObserveChain("ns.a.scc", []string{"scc", "a.scc"})
	b.ObserveChain("ns.b.scc", []string{"scc", "b.scc"})
	check(w.finish(t))

	var restores int
	for e := 0; e < 40; e++ {
		key := fmt.Sprintf("p%d.example", e)
		w.b.ObserveChain(key, w.chain(w.rng.Intn(w.doms)))
		w.b.Complete(key, w.chain(w.rng.Intn(w.doms)))
		if e == 5 {
			w.b.ObserveZone("c.scc", []string{"ns.a.scc"})
			w.b.ObserveChain("ns.c.scc", []string{"scc", "c.scc"})
		}
		names := 1 + w.rng.Intn(20)
		if e%15 == 14 {
			names = 200
		}
		w.feed(names, 0.3, 0.04)
		before := w.b
		check(w.finish(t))
		if w.b != before {
			restores++
		}
		if e%3 != 0 {
			w.b.TakeLateAttached()
		}
		if w.b.epoch > retain {
			w.b.PruneJournal(w.b.epoch - retain)
		}
	}
	if restores < 3 || w.lateEpochs < 5 {
		t.Fatalf("stream too tame: %d restores, %d late epochs", restores, w.lateEpochs)
	}

	w.b.sets.sweep()
	g := w.b.prev
	live := newTrustSets()
	live.views = views
	live.add(t, "last graph", g.closure, g.chainTCB)
	t.Logf("last graph: %d zones, %d chains, %d distinct built sets (%d ids); pool %d sets, built since the last restore %d",
		len(g.zones), len(g.chains), len(live.contents), live.ids, w.b.sets.n, len(ever.contents))
	if w.b.sets.n != len(ever.contents) {
		t.Fatalf("pool holds %d sets; the epochs since the last restore built %d distinct ones", w.b.sets.n, len(ever.contents))
	}
}

// TestSetPoolHoldsOnlyLiveSets runs a long late-attaching stream, holds
// the four newest generations as a Retain 4 monitor does, and checks
// after a collection that every set the pool still holds is one those
// generations hold: the sets late attaches replaced are gone from it.
// The runtime may keep a dead set of at most 3 ids alive in one
// allocation with a live one, so such sets are let through.
func TestSetPoolHoldsOnlyLiveSets(t *testing.T) {
	seed := propertySeed.Add(1)
	t.Logf("seed %d", seed)
	const retain = 4
	w := newRandomWorld(seed, 1500)
	w.feed(600, 0.3, 0.05)
	window := []*Graph{w.finish(t)}
	built := map[string]bool{} // contents only: keys pin no set
	for e := 0; e < 150; e++ {
		window = append(window, w.epoch(t, 1+w.rng.Intn(30), 0.3, 0.2))
		if len(window) > retain {
			window = window[1:]
		}
		g := window[len(window)-1]
		for _, table := range [][][]int32{g.closure, g.chainTCB} {
			for _, s := range table {
				if len(s) > 0 {
					built[idKey(s)] = true
				}
			}
		}
		w.b.TakeLateAttached()
		w.b.PruneJournal(g.epoch - retain)
	}
	if w.lateEpochs < 50 {
		t.Fatalf("only %d late epochs", w.lateEpochs)
	}

	held := newTrustSets()
	for _, g := range window {
		held.add(t, fmt.Sprintf("epoch %d", g.epoch), g.closure, g.chainTCB)
	}
	unswept := w.b.sets.n
	runtime.GC()
	p := &w.b.sets
	p.sweep()
	for _, es := range p.sets {
		for _, e := range es {
			v := e.p.Value()
			if v == nil {
				continue // collected after the sweep looked
			}
			if r := (sliceRun{v, e.n}); !held.backings[r] && e.n > 3 {
				t.Errorf("pool holds %v, which no retained generation holds", unsafe.Slice(v, e.n))
			}
		}
	}
	t.Logf("%d late epochs: %d distinct sets built, %d held by the %d retained generations; pool %d before the collection, %d after",
		w.lateEpochs, len(built), len(held.contents), len(window), unswept, p.n)
	if p.n >= len(built) {
		t.Errorf("pool kept %d sets, all %d ever built", p.n, len(built))
	}
	runtime.KeepAlive(window)
}

// TestHeldSetsReadSameWhileInterning holds a published generation's
// closures and TCBs fixed while later epochs intern on another
// goroutine, one of them a late attach that rewrites a held zone's
// closure to a set the held generation already pools.
func TestHeldSetsReadSameWhileInterning(t *testing.T) {
	seed := propertySeed.Add(1)
	t.Logf("seed %d", seed)
	w := newRandomWorld(seed, 1500)
	w.feed(600, 0.3, 0.05)
	// x.t0's only host has no address chain yet; w.t0 lists that host
	// and a.nic.t1, whose chain is t1. Once the host attaches late under
	// t1, x.t0 closes over exactly what w.t0 already does.
	w.observeTLD(0)
	b := w.b
	b.ObserveZone("x.t0", []string{"ns.h.t1"})
	b.ObserveZone("w.t0", []string{"ns.h.t1", "a.nic.t1"})
	b.Complete("www.x.t0", []string{"t0", "x.t0"})
	held := w.finish(t)
	x, _ := held.zoneIDOf("x.t0")
	wz, _ := held.zoneIDOf("w.t0")

	want := func(g *Graph) [][]int32 {
		out := make([][]int32, 0, len(g.closure)+len(g.chainTCB))
		for _, s := range g.closure {
			out = append(out, append([]int32(nil), s...))
		}
		for _, s := range g.chainTCB {
			out = append(out, append([]int32(nil), s...))
		}
		return out
	}(held)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for z, apex := range held.Zones() {
				if got := held.ZoneClosure(apex); !int32sEqual(got, want[z]) {
					t.Errorf("held closure of %s changed to %v, was %v", apex, got, want[z])
					return
				}
			}
			for c := range held.chains {
				if got := held.ChainTCBIDs(int32(c)); !int32sEqual(got, want[len(held.closure)+c]) {
					t.Errorf("held TCB of chain %d changed to %v, was %v", c, got, want[len(held.closure)+c])
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	b.ObserveChain("ns.h.t1", []string{"t1"})
	g := w.finish(t)
	if len(held.closure[wz]) == 0 || &g.closure[x][0] != &held.closure[wz][0] {
		t.Errorf("late attach rewrote x.t0's closure to %v, not the pooled %v", g.closure[x], held.closure[wz])
	}
	for e := 0; e < 20; e++ {
		w.epoch(t, 1+w.rng.Intn(30), 0.3, 0.2)
		w.b.TakeLateAttached()
	}
	close(stop)
	wg.Wait()
	if w.lateEpochs < 3 {
		t.Fatalf("only %d late epochs", w.lateEpochs)
	}
}
