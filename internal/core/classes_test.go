package core_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/crawler/crawltest"
	"dnstrust/internal/fleet"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/topology"
)

// allChainIDs lists every chain id of g.
func allChainIDs(g *core.Graph) []int32 {
	cids := make([]int32, g.NumChains())
	for i := range cids {
		cids[i] = int32(i)
	}
	return cids
}

// checkClassesShareFill fills every chain of g and holds it to the first
// chain of its digraph class: Hosts, Off and Adj must be equal. It
// returns the class of every chain.
func checkClassesShareFill(t *testing.T, how string, g *core.Graph) []int32 {
	t.Helper()
	cids := allChainIDs(g)
	class := g.DigraphClasses(cids)
	var first, member core.Digraph
	for i, r := range class {
		if int(r) == i {
			continue
		}
		if int(r) > i || class[r] != r {
			t.Fatalf("%s: chain %d's class leads with chain %d, not a first chain before it", how, i, r)
		}
		ferr, merr := first.Fill(g, cids[r]), member.Fill(g, cids[i])
		if ferr != nil || merr != nil {
			t.Fatalf("%s: chains %d and %d share a class, Fill returned %v and %v", how, r, i, ferr, merr)
		}
		if !slices.Equal(first.Hosts, member.Hosts) || !slices.Equal(first.Off, member.Off) || !slices.Equal(first.Adj, member.Adj) {
			t.Fatalf("%s: chain %d (zones %v) shares a class with chain %d (zones %v) but not its digraph:\nHosts %v / %v\nOff %v / %v\nAdj %v / %v",
				how, i, g.ChainZoneIDs(cids[i]), r, g.ChainZoneIDs(cids[r]),
				member.Hosts, first.Hosts, member.Off, first.Off, member.Adj, first.Adj)
		}
	}
	return class
}

// numClasses counts the first chains in a class column.
func numClasses(class []int32) int {
	n := 0
	for i, r := range class {
		if int(r) == i {
			n++
		}
	}
	return n
}

// crawlEngine crawls names of w on a fresh engine labeled as fleet
// shard shard ("" for none).
func crawlEngine(t *testing.T, w *topology.World, shard string, names []string) (*crawler.Engine, *crawler.Survey) {
	t.Helper()
	tr := w.Registry.Source()
	r, err := w.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	e := crawler.NewEngine(r, w.Registry.ProbeFunc(tr), crawler.Config{Workers: 2, ShardName: shard})
	t.Cleanup(func() { e.Close() })
	s, err := e.Add(context.Background(), names...)
	if err != nil {
		t.Fatal(err)
	}
	return e, s
}

// snapshotOf writes the engine's snapshot and reads it back.
func snapshotOf(t *testing.T, e *crawler.Engine) *snapshot.File {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDigraphClassesShareFill is the soundness oracle of
// core.Graph.DigraphClasses: every member of a class must get, from
// Fill, exactly its class's first chain's digraph, so one min-cut serves
// the class. It runs over an engine crawl of a generated world, every
// generation of a hand-driven stream that late-attaches hosts, a
// restored snapshot, a 3-shard fleet's merged graph, and a hand world
// where only the TLD bit keeps two chains apart.
func TestDigraphClassesShareFill(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		w, err := topology.Generate(topology.GenParams{Seed: 1, Names: 6000})
		if err != nil {
			t.Fatal(err)
		}
		e, s := crawlEngine(t, w, "", w.Corpus)
		class := checkClassesShareFill(t, "engine", s.Graph)
		n := numClasses(class)
		t.Logf("%d chains, %d digraph classes", len(class), n)
		if 3*n > 2*len(class) {
			t.Fatalf("%d classes over %d chains: under a third of the chains share a class", n, len(class))
		}

		b, err := core.LoadSnapshot(snapshotOf(t, e))
		if err != nil {
			t.Fatal(err)
		}
		restored := checkClassesShareFill(t, "restored", b.LastGraph())
		if !slices.Equal(restored, class) {
			t.Fatal("the restored graph's classes differ from the saved graph's")
		}
	})

	t.Run("stream", func(t *testing.T) {
		seed := core.NextPropertySeed()
		t.Logf("seed %d", seed)
		st := crawltest.NewStream(seed)
		late, shared := 0, 0
		for gen := 1; gen <= 40; gen++ {
			s := st.Next(30)
			if len(s.Stats.LateAttachedHosts) > 0 {
				late++
			}
			class := checkClassesShareFill(t, fmt.Sprintf("generation %d", gen), s.Graph)
			shared += len(class) - numClasses(class)
		}
		if late < 5 || shared == 0 {
			t.Fatalf("%d of 40 generations late-attached hosts, %d chains shared a class: the stream does not exercise both", late, shared)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		w, err := topology.Generate(topology.GenParams{Seed: 33, Names: 900})
		if err != nil {
			t.Fatal(err)
		}
		ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
		parts := ring.Assign(w.Corpus)
		var shards []fleet.Shard
		for i, name := range ring.Shards() {
			e, _ := crawlEngine(t, w, name, parts[i])
			ep, err := fleet.DecodeEpoch(snapshotOf(t, e))
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, fleet.Shard{Name: name, Source: &fleet.FixedSource{Epoch: ep}})
		}
		c, err := fleet.New(shards, fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Commit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		class := checkClassesShareFill(t, "fleet", v.Survey().Graph)
		if numClasses(class) == len(class) {
			t.Fatalf("no two of the merged graph's %d chains share a class", len(class))
		}
	})

	// The root delegates the two-label zone co.uk, served by uk's own
	// server. Both chains have an empty prefix and one NS set, so only
	// the TLD bit parts them: uk's server is grounded by root glue, while
	// co.uk's reaches ground through its address chain.
	t.Run("tld", func(t *testing.T) {
		b := core.NewBuilder(0)
		b.ObserveZone("net", []string{"a.gtld.net"})
		b.ObserveZone("gtld.net", []string{"a.gtld.net"})
		b.ObserveChain("a.gtld.net", []string{"net", "gtld.net"})
		b.ObserveZone("dns.net", []string{"ns.dns.net"})
		b.ObserveChain("ns.dns.net", []string{"net", "dns.net"})
		b.ObserveZone("uk", []string{"ns.dns.net"})
		b.ObserveZone("co.uk", []string{"ns.dns.net"})
		b.Complete("www.uk", []string{"uk"})
		b.Complete("www.co.uk", []string{"co.uk"})
		g := b.Finish()
		cids := make([]int32, 2)
		for i, name := range []string{"www.uk", "www.co.uk"} {
			cid, ok := g.NameChainID(name)
			if !ok {
				t.Fatalf("%s not surveyed", name)
			}
			cids[i] = cid
		}
		if class := g.DigraphClasses(cids); class[1] != 1 {
			t.Fatalf("the chains of uk and co.uk share a class: %v", class)
		}
		var uk, co core.Digraph
		if err := uk.Fill(g, cids[0]); err != nil {
			t.Fatal(err)
		}
		if err := co.Fill(g, cids[1]); err != nil {
			t.Fatal(err)
		}
		if slices.Equal(uk.Off, co.Off) && slices.Equal(uk.Adj, co.Adj) {
			t.Fatal("the digraphs of uk and co.uk are equal: the world does not need the TLD bit")
		}
		checkClassesShareFill(t, "tld", g)
	})
}
