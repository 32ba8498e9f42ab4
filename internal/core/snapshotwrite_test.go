package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dnstrust/internal/snapshot"
)

// encodeWith writes b's sections with encode into a complete snapshot.
func encodeWith(t *testing.T, b *Builder, encode func(*Builder, *snapshot.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := snapshot.NewWriter(&buf)
	if err := encode(b, sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// coreSections are the builder's sections in write order.
var coreSections = []string{
	"core/meta", "core/hosts", "core/zones", "core/chains", "core/zonens",
	"core/hostchain", "core/closure", "core/zoneadj", "core/chaintcb",
	"core/chainstamp", "core/base", "core/names", "core/journal",
	"core/touched", "core/failed", "core/failedchain", "core/pending", "core/late",
}

// firstDiff names the first section whose payload differs between two
// snapshot files.
func firstDiff(got, want []byte) string {
	gf, err := snapshot.Read(bytes.NewReader(got))
	if err != nil {
		return fmt.Sprintf("written file does not read: %v", err)
	}
	wf, err := snapshot.Read(bytes.NewReader(want))
	if err != nil {
		return fmt.Sprintf("reference file does not read: %v", err)
	}
	for _, name := range coreSections {
		if !bytes.Equal(gf.Section(name), wf.Section(name)) {
			return fmt.Sprintf("section %s: %d bytes, reference %d", name, len(gf.Section(name)), len(wf.Section(name)))
		}
	}
	return fmt.Sprintf("%d bytes, reference %d", len(got), len(want))
}

// TestSnapshotWriteMatchesReference holds Builder.WriteSections, which
// keeps the sorted base order between writes and writes id tables
// without hashing, to the reference encoder's bytes. A seeded random
// stream (randomWorld: cross-zone cycles, late host-chain attaches,
// failures and re-chains, plus pending chains, an empty host chain, an
// SCC that forms and one that grows, and journal pruning as a Retain 4
// monitor prunes) is written after every
// epoch and in the middle of batches, twice back to back, and every
// tenth epoch through write → restore → write, the restored builder
// then carrying the stream on. -count=3 runs three different streams.
func TestSnapshotWriteMatchesReference(t *testing.T) {
	seed := propertySeed.Add(1)
	t.Logf("seed %d", seed)
	const retain = 4
	w := newRandomWorld(seed, 1500)

	var baseShrank, lateWrites, sccFormed, sccGrew, pruned, restores, writes int
	lastBase := 0
	check := func(when string) []byte {
		t.Helper()
		got := encodeWith(t, w.b, (*Builder).WriteSections)
		want := encodeWith(t, w.b, writeSectionsReference)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s (epoch %d): %s", when, w.b.epoch, firstDiff(got, want))
		}
		if again := encodeWith(t, w.b, (*Builder).WriteSections); !bytes.Equal(again, got) {
			t.Fatalf("%s (epoch %d): a second write differs: %s", when, w.b.epoch, firstDiff(again, got))
		}
		if n := len(w.b.st.base); n < lastBase {
			baseShrank++
		}
		lastBase = len(w.b.st.base)
		if len(w.b.lateAttached) > 0 {
			lateWrites++
		}
		writes++
		return got
	}

	check("empty builder")
	finishChecked(t, w.b) // the Monitor's pre-crawl epoch on the empty store
	w.feed(700, 0.3, 0.05)
	// Besides the random stream's cycles, two scripted ones: zones of
	// "scc" form one SCC now and a.scc's late host pulls c.scc into it
	// later; x.form and y.form become one only when x.form's host
	// resolves late.
	b := w.b
	b.ObserveZone("scc", []string{"ns.a.scc"})
	b.ObserveZone("a.scc", []string{"ns.b.scc", "ns.c.scc"})
	b.ObserveZone("b.scc", []string{"ns.a.scc"})
	b.ObserveChain("ns.a.scc", []string{"scc", "a.scc"})
	b.ObserveChain("ns.b.scc", []string{"scc", "b.scc"})
	b.ObserveZone("form", []string{"ns.nowhere"})
	b.ObserveZone("x.form", []string{"ns.y.form"})
	b.ObserveZone("y.form", []string{"ns.x.form"})
	b.ObserveChain("ns.x.form", []string{"form", "x.form"})
	check("first batch, before its epoch")
	g := w.finish(t)
	check("first epoch")
	scc := sccSizes(g)

	for e := 0; e < 50; e++ {
		// Chains for keys that are not hosts wait as pending; a failure
		// keeps its chain in failedChain.
		key := fmt.Sprintf("p%d.example", e)
		w.b.ObserveChain(key, w.chain(w.rng.Intn(w.doms)))
		switch e % 3 {
		case 1:
			w.b.Fail(key, errors.New("no address"))
		case 2:
			w.b.Complete(key, w.chain(w.rng.Intn(w.doms)))
		}
		switch e {
		case 5:
			w.b.ObserveZone("c.scc", []string{"ns.a.scc"})
			w.b.ObserveChain("ns.c.scc", []string{"scc", "c.scc"})
		case 7:
			// A host whose chain is only the root: the empty chain.
			w.b.ObserveChain("b.nic."+w.tld(1), []string{""})
		case 12:
			w.b.ObserveChain("ns.y.form", []string{"form", "y.form"})
		}

		names := 1 + w.rng.Intn(20)
		if e%15 == 14 {
			names = 200
		}
		w.feed(names, 0.3, 0.04)
		if e%4 == 1 {
			check("mid-batch")
		}
		g = w.finish(t)
		if e%3 != 0 {
			w.b.TakeLateAttached()
		}
		if w.b.epoch > retain {
			w.b.PruneJournal(w.b.epoch - retain)
			pruned++
		}
		next := sccSizes(g)
		for z, n := range scc {
			switch {
			case n == 1 && next[z] > 1:
				sccFormed++
			case n > 1 && next[z] > n:
				sccGrew++
			}
		}
		scc = next
		data := check("after epoch")

		if e%10 == 9 {
			rb, err := ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeWith(t, rb, (*Builder).WriteSections); !bytes.Equal(got, data) {
				t.Fatalf("epoch %d: write → restore → write differs: %s", rb.epoch, firstDiff(got, data))
			}
			w.b = rb
			restores++
		}
	}

	if baseShrank < 5 || w.lateEpochs < 5 || lateWrites < 5 || sccFormed < 1 || sccGrew < 1 || restores < 5 {
		t.Fatalf("stream too tame: base shrank at %d writes, %d late epochs, %d writes with undrained late attaches, published zones joined %d SCCs and grew %d, %d restores",
			baseShrank, w.lateEpochs, lateWrites, sccFormed, sccGrew, restores)
	}
	t.Logf("%d writes: base shrank at %d, %d late epochs, published zones joined %d SCCs and grew %d, %d prunes, %d restores",
		writes, baseShrank, w.lateEpochs, sccFormed, sccGrew, pruned, restores)
}

// sccSizes reports, for every zone of g, the number of zones in its
// strongly connected component of the zone dependency digraph (zoneAdj),
// by an iterative Tarjan pass. Closure aliasing cannot tell SCCs apart:
// closures are interned by content, so zones of different SCCs with
// equal closures share one slice.
func sccSizes(g *Graph) []int {
	n := len(g.zoneAdj)
	index := make([]int, n) // DFS order + 1; 0: not yet visited
	low := make([]int, n)
	onStack := make([]bool, n)
	out := make([]int, n)
	var stack []int32
	type frame struct {
		v    int32
		edge int
	}
	var call []frame
	next := 0
	visit := func(v int32) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		call = append(call, frame{v: v})
	}
	for s := range n {
		if index[s] != 0 {
			continue
		}
		visit(int32(s))
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.edge < len(g.zoneAdj[v]) {
				w := g.zoneAdj[v][f.edge]
				f.edge++
				if index[w] == 0 {
					visit(w)
				} else if onStack[w] {
					low[v] = min(low[v], index[w])
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				u := call[len(call)-1].v
				low[u] = min(low[u], low[v])
			}
			if low[v] == index[v] {
				top := len(stack) - 1
				for stack[top] != v {
					top--
				}
				for _, z := range stack[top:] {
					onStack[z] = false
					out[z] = len(stack) - top
				}
				stack = stack[:top]
			}
		}
	}
	return out
}
