package core_test

import (
	"bytes"
	"fmt"
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

// TestRestoredNamesMatchCollected holds what a restore reads off the
// file's sorted tables — the last graph's name list and chain-id
// column, and the per-chain name lists cut from one array — to the
// saved graph and to the map-based collection. The crawltest stream
// re-chains, fails, revives and late-attaches; every third save is
// taken in the middle of a batch, so the file holds versions newer than
// its last graph. Each restored builder then keeps building: every
// existing chain interns to its old id, and a fresh name completed on
// every chain must leave every other chain's list intact.
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
		rb, err := core.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rb.Names(), want.Names()) {
			ahead++
		}
		got := rb.LastGraph()
		checkNamesRead(t, fmt.Sprintf("generation %d restored", gen), want, got)

		for c := range got.NumChains() {
			if cid := rb.InternChain(got.ChainZoneIDs(int32(c))); cid != int32(c) {
				t.Fatalf("generation %d: chain %d interns to %d after the restore", gen, c, cid)
			}
			rb.CompleteChain(fmt.Sprintf("fresh%d.restored", c), int32(c))
		}
		checkNamesRead(t, fmt.Sprintf("generation %d, next epoch", gen), nil, rb.FinishEpoch())
	}
	if ahead < 5 {
		t.Fatalf("only %d saves hold names newer than their last graph", ahead)
	}
}
