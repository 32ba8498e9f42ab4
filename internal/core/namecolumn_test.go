package core

import (
	"bytes"
	"testing"
)

// checkNameColumn asserts g's chain-id column is aligned with its name
// list and agrees with a per-name lookup everywhere.
func checkNameColumn(t testing.TB, how string, g *Graph) {
	t.Helper()
	names, ids := g.Names(), g.NameChainIDs()
	if len(names) != len(ids) || len(names) != g.NumNames() {
		t.Fatalf("epoch %d, %s: %d names, %d chain ids, NumNames %d", g.epoch, how, len(names), len(ids), g.NumNames())
	}
	for i, n := range names {
		if cid, ok := g.NameChainID(n); !ok || cid != ids[i] {
			t.Fatalf("epoch %d, %s: column has %s on chain %d, lookup says %d (present %v)", g.epoch, how, n, ids[i], cid, ok)
		}
	}
}

// unnamed is g before anything asked for its name list: the same epoch
// of the same store, so each NamesFrom path can be taken on it afresh.
func unnamed(g *Graph) *Graph {
	return &Graph{st: g.st, epoch: g.epoch, numNames: g.numNames}
}

// TestNameChainIDsMatchLookup drives seeded event streams — new names,
// re-chains, failures after success, heals — and checks the chain-id
// column on every path that fills it: the journal merge from the
// previous epoch and from several epochs back, the full collection, the
// fallback after the journal is pruned, a detached copy and a snapshot
// round trip.
func TestNameChainIDsMatchLookup(t *testing.T) {
	seed := propertySeed.Add(1)
	t.Logf("seed %d", seed)
	w := newRandomWorld(seed, 300)
	finishChecked(t, w.b) // the pre-crawl epoch on the empty store

	var gens []*Graph
	g := w.epoch(t, 400, 0.3, 0.1)
	gens = append(gens, g)
	checkNameColumn(t, "NamesFrom(prev)", g)
	for e := 0; e < 12; e++ {
		g = w.epoch(t, 10+w.rng.Intn(60), 0.3, 0.1)
		gens = append(gens, g)
		checkNameColumn(t, "NamesFrom(prev)", g)
		checkNameColumn(t, "NamesFrom(nil)", unnamed(g))
		if len(gens) > 3 {
			back := gens[len(gens)-4]
			u := unnamed(g)
			u.NamesFrom(back)
			checkNameColumn(t, "NamesFrom(three epochs back)", u)
		}
		checkNameColumn(t, "Detach", g.Detach())
		if e == 6 {
			// Prune past the last epoch: a merge from it must fall back to
			// the full collection.
			w.b.PruneJournal(g.epoch)
			next := w.epoch(t, 20, 0.3, 0.1)
			gens = append(gens, next)
			u := unnamed(next)
			u.NamesFrom(gens[len(gens)-3])
			checkNameColumn(t, "NamesFrom after PruneJournal", u)
			checkNameColumn(t, "NamesFrom(prev) after PruneJournal", next)
		}
	}

	var buf bytes.Buffer
	if err := w.b.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lb, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkNameColumn(t, "snapshot round trip", lb.LastGraph())
	// The restored builder keeps going: the next epoch merges from the
	// restored graph's column.
	rg := lb.LastGraph()
	rn := rg.Names()
	lb.Complete(rn[1], rg.NameChainZones(rn[len(rn)-1])) // a re-chain
	lb.Complete("fresh."+rn[0], rg.NameChainZones(rn[0]))
	next := lb.FinishEpoch()
	next.NamesFrom(rg)
	checkNameColumn(t, "NamesFrom(restored)", next)
}
