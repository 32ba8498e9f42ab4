package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// replayByID rebuilds src's graph into dst through the id-translation
// hooks, exactly the way a fleet coordinator replays a shard epoch:
// walk each intern table in id order, translate references through the
// remap tables built so far, and re-complete every name.
func replayByID(dst *Builder, src *Builder, g *Graph) {
	hostMap := make([]int32, g.NumHosts())
	for h := range hostMap {
		hostMap[h] = dst.InternHost(g.Host(int32(h)))
	}
	zoneMap := make([]int32, g.NumZones())
	for z := range zoneMap {
		ns := g.ZoneNSIDs(int32(z))
		mapped := make([]int32, len(ns))
		for i, h := range ns {
			mapped[i] = hostMap[h]
		}
		zoneMap[z] = dst.InternZone(g.Zone(int32(z)), mapped)
	}
	chainMap := make([]int32, g.NumChains())
	for c := range chainMap {
		ids := g.ChainZoneIDs(int32(c))
		mapped := make([]int32, len(ids))
		for i, z := range ids {
			mapped[i] = zoneMap[z]
		}
		chainMap[c] = dst.InternChain(mapped)
	}
	for h := 0; h < g.NumHosts(); h++ {
		ids := g.HostChainIDs(int32(h))
		if ids == nil {
			continue
		}
		mapped := make([]int32, len(ids))
		for i, z := range ids {
			mapped[i] = zoneMap[z]
		}
		dst.AttachHostChain(hostMap[h], dst.InternChain(mapped))
	}
	for _, name := range g.Names() {
		cid, ok := g.NameChainID(name)
		if !ok {
			continue
		}
		dst.CompleteChain(name, chainMap[cid])
	}
	for name, err := range src.Failed() {
		dst.Fail(name, err)
	}
}

// sameTables asserts two graphs built in the same id order have
// identical intern tables.
func sameTables(t *testing.T, g, g2 *Graph) {
	t.Helper()
	// Replay preserves id order, so the tables must match exactly.
	if !reflect.DeepEqual(g.Hosts(), g2.Hosts()) {
		t.Fatalf("host tables differ: %d vs %d entries", g.NumHosts(), g2.NumHosts())
	}
	if !reflect.DeepEqual(g.Zones(), g2.Zones()) {
		t.Fatalf("zone tables differ: %d vs %d entries", g.NumZones(), g2.NumZones())
	}
	if g.NumChains() != g2.NumChains() {
		t.Fatalf("chain tables differ: %d vs %d entries", g.NumChains(), g2.NumChains())
	}
	for c := int32(0); int(c) < g.NumChains(); c++ {
		a, b := g.ChainZoneIDs(c), g2.ChainZoneIDs(c)
		if len(a) != len(b) || (len(a) > 0 && !reflect.DeepEqual(a, b)) {
			t.Fatalf("chain %d differs: %v vs %v", c, a, b)
		}
	}
	if !reflect.DeepEqual(g.Names(), g2.Names()) {
		t.Fatalf("name sets differ: %d vs %d names", g.NumNames(), g2.NumNames())
	}
}

// sameTCBs asserts every name of want has the same TCB, as host names,
// in got — the comparison that survives differing intern ids.
func sameTCBs(t *testing.T, want, got *Graph) {
	t.Helper()
	for _, name := range want.Names() {
		w, err := want.TCB(name)
		if err != nil {
			t.Fatalf("TCB(%q): %v", name, err)
		}
		g, err := got.TCB(name)
		if err != nil {
			t.Fatalf("replayed TCB(%q): %v", name, err)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("TCB(%q) differs:\n want %v\n  got %v", name, w, g)
		}
	}
}

// TestTranslateEquivalence proves the id-path hooks assemble the same
// graph as the string event path: a synthetic corpus built via
// ObserveZone/ObserveChain/Complete, replayed id-by-id into a second
// builder, yields identical intern tables and identical per-name TCBs —
// epoch after epoch, through a late attach, and when the shard restarts
// with fresh ids and is re-translated into the same union builder. Every
// epoch on either path is checked against the whole-graph closure pass.
func TestTranslateEquivalence(t *testing.T) {
	const names = 500
	src := NewBuilder(names)
	FeedSyntheticRange(src, 0, 300, names)
	src.Fail("broken.example", errors.New("walk failed"))
	// A zone published before its nameserver's address chain is known.
	src.ObserveZone("lag.tld0", []string{"ns.lag.tld0", "ns1.dom0.tld0"})
	src.Complete("www.lag.tld0", []string{"tld0", "lag.tld0"})
	g := finishChecked(t, src)

	dst := NewBuilder(0)
	replayByID(dst, src, g)
	g2 := finishChecked(t, dst)
	sameTables(t, g, g2)
	sameTCBs(t, g, g2)
	if len(dst.Failed()) != len(src.Failed()) {
		t.Fatalf("failed sets differ: %d vs %d", len(src.Failed()), len(dst.Failed()))
	}

	// The shard's next epoch — the late attach and more names — replayed
	// over the already translated prefix.
	lagTCB := g2.TCBSize("www.lag.tld0")
	src.ObserveChain("ns.lag.tld0", []string{"tld1", "dom1.tld1"})
	FeedSyntheticRange(src, 300, 400, names)
	g = finishChecked(t, src)
	replayByID(dst, src, g)
	g2 = finishChecked(t, dst)
	sameTables(t, g, g2)
	sameTCBs(t, g, g2)
	if got := g2.TCBSize("www.lag.tld0"); got <= lagTCB {
		t.Fatalf("TCB of www.lag.tld0 stayed at %d servers across the late attach", got)
	}
	if late := dst.TakeLateAttached(); len(late) != 1 {
		t.Fatalf("union builder saw late attaches %v, want exactly ns.lag.tld0", late)
	}

	// The shard restarts from scratch: it re-crawls in another order, so
	// its ids no longer extend the translated ones, and goes further. The
	// coordinator drops its remap and re-translates everything.
	re := NewBuilder(names)
	FeedSyntheticRange(re, 200, 500, names)
	FeedSyntheticRange(re, 0, 200, names)
	re.ObserveZone("lag.tld0", []string{"ns.lag.tld0", "ns1.dom0.tld0"})
	re.ObserveChain("ns.lag.tld0", []string{"tld1", "dom1.tld1"})
	re.Complete("www.lag.tld0", []string{"tld0", "lag.tld0"})
	gr := finishChecked(t, re)
	replayByID(dst, re, gr)
	g2 = finishChecked(t, dst)
	sameTCBs(t, gr, g2)
	if g2.NumNames() != gr.NumNames() {
		t.Fatalf("union has %d names after the restart, the shard %d", g2.NumNames(), gr.NumNames())
	}
}

// TestTranslateIdempotent proves re-replaying an unchanged epoch is a
// no-op: no new versions, no journal touches, no table growth — the
// property that lets a coordinator re-apply a shard's full name table
// on every commit without churning the union store.
func TestTranslateIdempotent(t *testing.T) {
	const names = 200
	src := NewBuilder(names)
	FeedSynthetic(src, names)
	g := src.FinishEpoch()

	dst := NewBuilder(0)
	replayByID(dst, src, g)
	g2 := dst.FinishEpoch() // publish: later mutations are journaled

	replayByID(dst, src, g)
	if got := len(dst.touched); got != 0 {
		t.Fatalf("re-replay touched %d names, want 0", got)
	}
	g3 := dst.FinishEpoch()
	if g3.NumNames() != g2.NumNames() || g3.NumChains() != g2.NumChains() ||
		g3.NumHosts() != g2.NumHosts() || g3.NumZones() != g2.NumZones() {
		t.Fatalf("re-replay changed dims: %v vs %v",
			[]int{g3.NumNames(), g3.NumChains(), g3.NumHosts(), g3.NumZones()},
			[]int{g2.NumNames(), g2.NumChains(), g2.NumHosts(), g2.NumZones()})
	}
	if names := g3.NamesTouchedSince(g2.Epoch()); len(names) != 0 {
		t.Fatalf("re-replay journaled %d names, want 0", len(names))
	}
}

// TestCompleteChainSupersedesFail mirrors the string-path contract on
// the id path: a name that failed in one shard epoch and completed in a
// later one ends up present exactly once.
func TestCompleteChainSupersedesFail(t *testing.T) {
	b := NewBuilder(0)
	zid := b.InternZone("tld0", nil)
	cid := b.InternChain([]int32{zid})
	b.Fail("flappy.tld0", fmt.Errorf("timeout"))
	b.CompleteChain("flappy.tld0", cid)
	g := b.FinishEpoch()
	if g.NumNames() != 1 {
		t.Fatalf("NumNames = %d, want 1", g.NumNames())
	}
	if len(b.Failed()) != 0 {
		t.Fatalf("failed set not cleared: %v", b.Failed())
	}
	if _, ok := g.NameChainID("flappy.tld0"); !ok {
		t.Fatalf("name not present after CompleteChain")
	}
}
