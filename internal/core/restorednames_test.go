package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler/crawltest"
)

// checkNamesRead asserts that g's name list, chain-id column and
// per-chain name lists equal want's and the map-based collection over
// g's own store, and that ChainLive agrees with them on every chain.
func checkNamesRead(t *testing.T, how string, want, g *core.Graph) {
	t.Helper()
	names, ids := core.CollectNames(g)
	if !slices.Equal(g.Names(), names) || !slices.Equal(g.NameChainIDs(), ids) {
		t.Fatalf("%s: Names/NameChainIDs differ from the collected %d names", how, len(names))
	}
	if want != nil && (!slices.Equal(g.Names(), want.Names()) || !slices.Equal(g.NameChainIDs(), want.NameChainIDs())) {
		t.Fatalf("%s: Names/NameChainIDs differ from the saved graph's", how)
	}
	onChain := make([][]string, g.NumChains())
	for i, n := range names {
		onChain[ids[i]] = append(onChain[ids[i]], n)
	}
	for c := range g.NumChains() {
		cid := int32(c)
		got := g.NamesOnChain(cid)
		if !slices.Equal(got, onChain[c]) {
			t.Fatalf("%s: NamesOnChain(%d) = %v, collected %v", how, c, got, onChain[c])
		}
		if live := g.ChainLive(cid); live != (len(onChain[c]) > 0) {
			t.Fatalf("%s: ChainLive(%d) = %v with %d names on it", how, c, live, len(onChain[c]))
		}
		if want != nil && (!slices.Equal(got, want.NamesOnChain(cid)) || g.ChainLive(cid) != want.ChainLive(cid)) {
			t.Fatalf("%s: chain %d reads differently from the saved graph", how, c)
		}
	}
}

// checkNameReads asserts that g answers name→chain lookups,
// NamesOnChain and TCB by name as want does, for every name want holds
// and for every name the builder has failed.
func checkNameReads(t *testing.T, how string, want, g *core.Graph, failed map[string]error) {
	t.Helper()
	for i, n := range want.Names() {
		cid, ok := g.NameChainID(n)
		if !ok || cid != want.NameChainIDs()[i] {
			t.Fatalf("%s: NameChainID(%q) = %d, %v, want %d", how, n, cid, ok, want.NameChainIDs()[i])
		}
		tcb, err := g.TCBIDs(n)
		if wt, _ := want.TCBIDs(n); err != nil || !slices.Equal(tcb, wt) {
			t.Fatalf("%s: TCB(%q) = %v, %v, want %v", how, n, tcb, err, wt)
		}
	}
	for n := range failed {
		cid, ok := g.NameChainID(n)
		if wcid, wok := want.NameChainID(n); cid != wcid || ok != wok {
			t.Fatalf("%s: failed name %q looks up %d, %v, want %d, %v", how, n, cid, ok, wcid, wok)
		}
	}
	for c := range want.NumChains() {
		if got, w := g.NamesOnChain(int32(c)), want.NamesOnChain(int32(c)); !slices.Equal(got, w) {
			t.Fatalf("%s: NamesOnChain(%d) = %v, want %v", how, c, got, w)
		}
	}
}

// checkInternReads asserts that g answers HostID for every host and
// ZoneNS and ZoneClosure for every zone apex as want does, HostID first.
func checkInternReads(t *testing.T, how string, want, g *core.Graph) {
	t.Helper()
	for i, h := range want.Hosts() {
		if id, ok := g.HostID(h); !ok || id != int32(i) {
			t.Fatalf("%s: HostID(%q) = %d, %v, want %d", how, h, id, ok, i)
		}
	}
	for _, z := range want.Zones() {
		if !slices.Equal(g.ZoneNS(z), want.ZoneNS(z)) || !slices.Equal(g.ZoneClosure(z), want.ZoneClosure(z)) {
			t.Fatalf("%s: zone %q reads differently", how, z)
		}
	}
}

// firstWrites are the kinds of first write a restored builder can take.
// Each applies one to b, whose last graph is the saved one, and returns
// the graph to compare: the next epoch's, or for Detach the detached
// copy and for WriteSections the last graph.
var firstWrites = []struct {
	kind  string
	apply func(t *testing.T, b *core.Builder) *core.Graph
}{
	{"Complete", func(t *testing.T, b *core.Builder) *core.Graph {
		g := b.LastGraph()
		for i, n := range g.Names() {
			if i%4 == 0 {
				b.Complete(n, g.NameChainZones(g.Names()[(i+1)%len(g.Names())]))
			}
		}
		b.Complete("fresh.site0.com", g.NameChainZones(g.Names()[0]))
		return b.FinishEpoch()
	}},
	{"Fail", func(t *testing.T, b *core.Builder) *core.Graph {
		for i, n := range b.LastGraph().Names() {
			if i%4 == 1 {
				b.Fail(n, errors.New("walk failed after the restore"))
			}
		}
		return b.FinishEpoch()
	}},
	{"ObserveZone", func(t *testing.T, b *core.Builder) *core.Graph {
		g := b.LastGraph()
		b.ObserveZone(g.Zones()[0], []string{"ns.ignored.net"}) // known apex: ignored
		b.ObserveZone("fresh.com", []string{g.Hosts()[0], "ns.fresh.com"})
		b.ObserveChain("ns.fresh.com", []string{"com", "fresh.com"})
		b.Complete("www.fresh.com", []string{"com", "fresh.com"})
		return b.FinishEpoch()
	}},
	{"ObserveChain", func(t *testing.T, b *core.Builder) *core.Graph {
		// Attaches a chain to every host still without one (a late
		// attach), and leaves a non-host's chain pending.
		for _, h := range b.LastGraph().Hosts() {
			b.ObserveChain(h, []string{"org", "hoster0.net"})
		}
		b.ObserveChain("pending.example", []string{"com"})
		return b.FinishEpoch()
	}},
	{"InternZone", func(t *testing.T, b *core.Builder) *core.Graph {
		g := b.LastGraph()
		for i, z := range g.Zones() {
			if zid := b.InternZone(z, nil); zid != int32(i) {
				t.Fatalf("InternZone(%q) = %d, want %d", z, zid, i)
			}
		}
		zid := b.InternZone("interned.net", []int32{0})
		b.CompleteChain("www.interned.net", b.InternChain([]int32{zid}))
		return b.FinishEpoch()
	}},
	{"Detach", func(t *testing.T, b *core.Builder) *core.Graph {
		return b.LastGraph().Detach()
	}},
	{"WriteSections", func(t *testing.T, b *core.Builder) *core.Graph {
		if err := b.WriteSnapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
		return b.LastGraph()
	}},
}

// TestRestoredNamesMatchCollected holds what a restore reads off the
// file's sorted tables — the last graph's name list and chain-id
// column, the per-chain name lists cut from one array, and name lookups
// in the sorted base table before the store builds its hash indexes —
// to the saved graph and to the map-based collection. The crawltest
// stream re-chains, fails, revives and late-attaches; every third save
// is taken in the middle of a batch, so the file holds versions newer
// than its last graph. Each restored builder then keeps building: every
// existing chain interns to its old id, and a fresh name completed on
// every chain must leave every other chain's list intact. Every kind of
// first write then goes to a restore that has not built its indexes and
// one that has: both must answer alike, each name lookup must agree with
// the collected chain-id column, and both must re-export the same bytes.
func TestRestoredNamesMatchCollected(t *testing.T) {
	seed := core.NextPropertySeed()
	t.Logf("seed %d", seed)
	s := crawltest.NewStream(seed)
	ahead := 0
	for gen := 1; gen <= 30; gen++ {
		s.Next(40)
		if gen%3 == 0 {
			s.Apply(20)
		}
		b := s.Builder()
		want := b.LastGraph()
		var buf bytes.Buffer
		if err := b.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restore := func() *core.Builder {
			t.Helper()
			rb, err := core.ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return rb
		}
		rb := restore()
		got := rb.LastGraph()
		how := fmt.Sprintf("generation %d restored", gen)
		checkNameReads(t, how, want, got, b.Failed())
		if core.Indexed(got) {
			t.Fatalf("%s: name reads built the hash indexes", how)
		}
		checkInternReads(t, how, want, got)
		if !slices.Equal(rb.Names(), want.Names()) {
			ahead++
		}
		checkNamesRead(t, how, want, got)

		for c := range got.NumChains() {
			if cid := rb.InternChain(got.ChainZoneIDs(int32(c))); cid != int32(c) {
				t.Fatalf("generation %d: chain %d interns to %d after the restore", gen, c, cid)
			}
			rb.CompleteChain(fmt.Sprintf("fresh%d.restored", c), int32(c))
		}
		checkNamesRead(t, fmt.Sprintf("generation %d, next epoch", gen), nil, rb.FinishEpoch())

		for _, w := range firstWrites {
			how := fmt.Sprintf("generation %d, first write %s", gen, w.kind)
			lazy, eager := restore(), restore()
			core.Index(eager)
			if core.Indexed(lazy.LastGraph()) {
				t.Fatalf("%s: the restore built the hash indexes", how)
			}
			gl, ge := w.apply(t, lazy), w.apply(t, eager)
			checkNamesRead(t, how, ge, gl)
			names, ids := core.CollectNames(gl)
			for i, n := range names {
				if cid, ok := gl.NameChainID(n); !ok || cid != ids[i] {
					t.Fatalf("%s: NameChainID(%q) = %d, %v, collected %d", how, n, cid, ok, ids[i])
				}
			}
			checkNameReads(t, how, ge, gl, lazy.Failed())
			checkInternReads(t, how, ge, gl)
			var lb, eb bytes.Buffer
			if err := lazy.WriteSnapshot(&lb); err != nil {
				t.Fatal(err)
			}
			if err := eager.WriteSnapshot(&eb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lb.Bytes(), eb.Bytes()) {
				t.Fatalf("%s: re-exports differ", how)
			}
			if w.kind == "WriteSections" && !bytes.Equal(lb.Bytes(), buf.Bytes()) {
				t.Fatalf("%s: restore → write differs from the saved file", how)
			}
		}
	}
	if ahead < 5 {
		t.Fatalf("only %d saves hold names newer than their last graph", ahead)
	}
}

// TestRestoredReadsDuringFirstWrite reads a restored graph from other
// goroutines — name lookups, HostID, zones by apex and Detach — while
// the first batch of writes after the restore builds the store's hash
// indexes. Readers start on different reads, so the build runs in a
// reader on some rounds and in the writer on others; every read must
// answer what the saved graph answered. Run it under -race.
func TestRestoredReadsDuringFirstWrite(t *testing.T) {
	seed := core.NextPropertySeed()
	t.Logf("seed %d", seed)
	s := crawltest.NewStream(seed)
	for range 10 {
		s.Next(40)
	}
	want := s.Builder().LastGraph()
	var buf bytes.Buffer
	if err := s.Builder().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	const readers = 4
	reads := []func(g *core.Graph) error{
		func(g *core.Graph) error {
			for i, n := range want.Names() {
				if cid, ok := g.NameChainID(n); !ok || cid != want.NameChainIDs()[i] {
					return fmt.Errorf("NameChainID(%q) = %d, %v, want %d", n, cid, ok, want.NameChainIDs()[i])
				}
			}
			return nil
		},
		func(g *core.Graph) error {
			for i, h := range want.Hosts() {
				if id, ok := g.HostID(h); !ok || id != int32(i) {
					return fmt.Errorf("HostID(%q) = %d, %v, want %d", h, id, ok, i)
				}
			}
			return nil
		},
		func(g *core.Graph) error {
			for _, z := range want.Zones() {
				if !slices.Equal(g.ZoneNS(z), want.ZoneNS(z)) {
					return fmt.Errorf("ZoneNS(%q) = %v, want %v", z, g.ZoneNS(z), want.ZoneNS(z))
				}
			}
			return nil
		},
		func(g *core.Graph) error {
			if d := g.Detach(); !slices.Equal(d.Names(), want.Names()) || !slices.Equal(d.NameChainIDs(), want.NameChainIDs()) {
				return fmt.Errorf("the detached graph's names differ")
			}
			return nil
		},
	}
	for round := range 20 {
		rb, err := core.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		g := rb.LastGraph()
		errs := make(chan error, readers)
		started := make(chan struct{}, readers)
		for r := range readers {
			go func() {
				started <- struct{}{}
				for i := range len(reads) {
					if err := reads[(r+round+i)%len(reads)](g); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for range readers {
			<-started
		}
		// The first batch: re-chain and fail restored names, complete a
		// fresh one under a new zone.
		names := want.Names()
		rb.Complete(names[round%len(names)], g.NameChainZones(names[(round+1)%len(names)]))
		rb.Fail(names[(round+2)%len(names)], errors.New("walk failed"))
		rb.ObserveZone("fresh.net", []string{"ns.fresh.net"})
		rb.ObserveChain("ns.fresh.net", []string{"net", "fresh.net"})
		rb.Complete("www.fresh.net", []string{"net", "fresh.net"})
		rb.FinishEpoch()
		for range readers {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
