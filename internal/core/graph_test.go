package core_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dnstrust/internal/core"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
)

// crawl walks the given names in a registry and builds the graph.
func crawl(t *testing.T, reg *topology.Registry, names ...string) *core.Graph {
	t.Helper()
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	w := resolver.NewWalker(r)
	b := core.NewBuilder(len(names))
	w.SetObserver(core.BuilderObserver{B: b})
	for _, n := range names {
		chain, err := w.WalkName(context.Background(), n)
		if err != nil {
			t.Fatalf("WalkName(%q): %v", n, err)
		}
		b.Complete(n, chain)
	}
	return b.Finish()
}

func TestFigure1TCB(t *testing.T) {
	g := crawl(t, topology.Figure1World(), "www.cs.cornell.edu")
	tcb, err := g.TCB("www.cs.cornell.edu")
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, h := range tcb {
		set[h] = true
	}
	// The paper: "In addition to the top-level domain nameservers, the
	// resolution of this name depends on twenty other nameservers".
	// Check the signature dependencies from Figure 1.
	for _, want := range []string{
		"penguin.cs.cornell.edu", "cudns.cit.cornell.edu",
		"cayuga.cs.rochester.edu", "dns.cs.wisc.edu",
		"dns2.itd.umich.edu", "dns.itd.umich.edu", // the surprising umich dependency
		"a.gtld-servers.net", "a2.nstld.com", // TLD infrastructure
	} {
		if !set[want] {
			t.Errorf("TCB missing %q; got %d hosts: %v", want, len(tcb), tcb)
		}
	}
	// Root servers must be excluded.
	for h := range set {
		if strings.HasSuffix(h, "root-servers.net") {
			t.Errorf("root server %q must not be in the TCB", h)
		}
	}
	// Figure 1 has 13 gtld + 4 nstld + 20 others = TCB well over 30.
	if len(tcb) < 30 {
		t.Errorf("TCB size = %d, expected the full Figure 1 fan-out", len(tcb))
	}
}

func TestFigure1NonTCBExcluded(t *testing.T) {
	reg := topology.Figure1World()
	g := crawl(t, reg, "www.cs.cornell.edu")
	// Every TCB host must be a discovered host of the graph, and TCB must
	// not contain the surveyed name itself.
	tcb, err := g.TCB("www.cs.cornell.edu")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tcb {
		if h == "www.cs.cornell.edu" {
			t.Error("the surveyed name is not a nameserver")
		}
	}
}

func TestTCBDeterministic(t *testing.T) {
	reg := topology.Figure1World()
	g1 := crawl(t, reg, "www.cs.cornell.edu")
	g2 := crawl(t, reg, "www.cs.cornell.edu")
	t1, _ := g1.TCB("www.cs.cornell.edu")
	t2, _ := g2.TCB("www.cs.cornell.edu")
	if len(t1) != len(t2) {
		t.Fatalf("TCB sizes differ across crawls: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("TCB differs at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
}

func TestFBIWorldTCB(t *testing.T) {
	g := crawl(t, topology.FBIWorld(), "www.fbi.gov")
	tcb, err := g.TCB("www.fbi.gov")
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, h := range tcb {
		set[h] = true
	}
	// The §3.2 chain: sprintip servers, then telemail servers.
	for _, want := range []string{
		"dns.sprintip.com", "dns2.sprintip.com",
		"reston-ns1.telemail.net", "reston-ns2.telemail.net", "reston-ns3.telemail.net",
	} {
		if !set[want] {
			t.Errorf("TCB missing %q", want)
		}
	}
}

func TestOwnedServers(t *testing.T) {
	g := crawl(t, topology.FBIWorld(), "www.fbi.gov")
	owned, external, err := g.OwnedServers("www.fbi.gov")
	if err != nil {
		t.Fatal(err)
	}
	// fbi.gov runs no nameservers of its own: everything is external —
	// exactly the paper's point about outsourced trust.
	if len(owned) != 0 {
		t.Errorf("owned = %v, want none", owned)
	}
	if len(external) == 0 {
		t.Error("external should cover the whole TCB")
	}
}

func TestOwnedServersCornell(t *testing.T) {
	g := crawl(t, topology.Figure1World(), "www.cs.cornell.edu")
	owned, _, err := g.OwnedServers("www.cs.cornell.edu")
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1: nine cornell.edu servers serve Cornell's chain.
	wantOwned := map[string]bool{
		"penguin.cs.cornell.edu": true, "sunup.cs.cornell.edu": true,
		"sundown.cs.cornell.edu": true, "sunburn.cs.cornell.edu": true,
		"iago.cs.cornell.edu": true, "dns.cit.cornell.edu": true,
		"bigred.cit.cornell.edu": true, "cudns.cit.cornell.edu": true,
		"simon.cs.cornell.edu": true,
	}
	if len(owned) != len(wantOwned) {
		t.Errorf("owned = %v (%d), want %d cornell.edu servers", owned, len(owned), len(wantOwned))
	}
	for _, h := range owned {
		if !wantOwned[h] {
			t.Errorf("unexpected owned server %q", h)
		}
	}
}

func TestZoneClosureSubsetOfTCB(t *testing.T) {
	g := crawl(t, topology.Figure1World(), "www.cs.cornell.edu")
	tcb, err := g.TCBIDs("www.cs.cornell.edu")
	if err != nil {
		t.Fatal(err)
	}
	inTCB := map[int32]bool{}
	for _, id := range tcb {
		inTCB[id] = true
	}
	for _, apex := range g.NameChainZones("www.cs.cornell.edu") {
		for _, id := range g.ZoneClosure(apex) {
			if !inTCB[id] {
				t.Errorf("zone %q closure member %q missing from TCB", apex, g.Host(id))
			}
		}
	}
}

func TestClosureMonotoneUnderChain(t *testing.T) {
	// closure(child) must contain NS(child); closure(zone) must contain
	// the closure contribution of every zone its hosts depend on.
	g := crawl(t, topology.UkraineWorld(), "www.rkc.lviv.ua")
	for _, apex := range g.Zones() {
		cl := g.ZoneClosure(apex)
		set := map[int32]bool{}
		for _, id := range cl {
			set[id] = true
		}
		for _, id := range g.ZoneNS(apex) {
			if !set[id] {
				t.Errorf("zone %q closure missing its own NS host %q", apex, g.Host(id))
			}
		}
	}
}

func TestClosureHandlesCycles(t *testing.T) {
	// UkraineWorld has mutual dependencies (net.ua <-> lucky.net.ua).
	g := crawl(t, topology.UkraineWorld(), "www.rkc.lviv.ua")
	a := g.ZoneClosure("net.ua")
	b := g.ZoneClosure("lucky.net.ua")
	// Zones in the same dependency SCC have identical closures.
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("closures empty")
	}
	inA := map[int32]bool{}
	for _, id := range a {
		inA[id] = true
	}
	for _, id := range b {
		if !inA[id] {
			t.Errorf("cyclic zones should share closure; %q missing from net.ua", g.Host(id))
		}
	}
}

func TestTCBIDsSortedUnique(t *testing.T) {
	g := crawl(t, topology.UkraineWorld(), "www.rkc.lviv.ua")
	ids, err := g.TCBIDs("www.rkc.lviv.ua")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("TCB ids not sorted/unique at %d", i)
		}
	}
}

func TestUnknownName(t *testing.T) {
	g := crawl(t, topology.FBIWorld(), "www.fbi.gov")
	if _, err := g.TCB("unknown.example.com"); err == nil {
		t.Error("TCB of unsurveyed name must error")
	}
	if g.TCBSize("unknown.example.com") != -1 {
		t.Error("TCBSize of unsurveyed name must be -1")
	}
	if _, err := g.DOT("unknown.example.com"); err == nil {
		t.Error("DOT of unsurveyed name must error")
	}
}

func TestDigraphStructure(t *testing.T) {
	g := crawl(t, topology.FBIWorld(), "www.fbi.gov")
	cid, ok := g.NameChainID("www.fbi.gov")
	if !ok {
		t.Fatal("www.fbi.gov not surveyed")
	}
	var d core.Digraph
	if err := d.Fill(g, cid); err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != len(d.Hosts)+2 || len(d.Off) != d.NumNodes()+1 {
		t.Error("node count mismatch")
	}
	// succ[a] lists a's successors by name, in name order.
	succ := map[string][]string{}
	for _, line := range core.DigraphLines(g, &d) {
		if from, to, ok := strings.Cut(line, " -> "); ok {
			succ[from] = append(succ[from], to)
		}
	}
	// Source must point exactly at fbi.gov's two nameservers.
	want := []string{"dns.sprintip.com", "dns2.sprintip.com"}
	if got := succ[core.SourceNode]; !reflect.DeepEqual(got, want) {
		t.Errorf("source targets = %v, want %v", got, want)
	}
	// gov TLD servers must be grounded at the sink.
	if got := succ["a.gov-servers.net"]; !reflect.DeepEqual(got, []string{core.SinkNode}) {
		t.Errorf("a.gov-servers.net points at %v, want only the sink (a TLD server is grounded)", got)
	}
	// A path Source -> ... -> Sink must exist.
	if !reachable(succ, core.SourceNode, core.SinkNode) {
		t.Error("no path from source to sink")
	}
}

func reachable(succ map[string][]string, from, to string) bool {
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		for _, w := range succ[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

func TestDOTOutput(t *testing.T) {
	g := crawl(t, topology.Figure1World(), "www.cs.cornell.edu")
	dot, err := g.DOT("www.cs.cornell.edu")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"digraph", "cluster_cs.cornell.edu", "cluster_umich.edu",
		"penguin.cs.cornell.edu", "dns.cs.wisc.edu", "->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestReachableZones(t *testing.T) {
	g := crawl(t, topology.Figure1World(), "www.cs.cornell.edu")
	ids, err := g.ReachableZoneIDs("www.cs.cornell.edu")
	if err != nil {
		t.Fatal(err)
	}
	apexes := map[string]bool{}
	for _, id := range ids {
		apexes[g.Zones()[id]] = true
	}
	for _, want := range []string{"edu", "cornell.edu", "cs.cornell.edu", "umich.edu", "nstld.com"} {
		if !apexes[want] {
			t.Errorf("reachable zones missing %q", want)
		}
	}
}

func TestGraphAccessors(t *testing.T) {
	g := crawl(t, topology.FBIWorld(), "www.fbi.gov")
	if g.NumZones() == 0 || g.NumHosts() == 0 {
		t.Fatal("empty graph")
	}
	if _, ok := g.HostID("dns.sprintip.com"); !ok {
		t.Error("HostID lookup failed")
	}
	if len(g.Names()) != 1 || g.Names()[0] != "www.fbi.gov" {
		t.Errorf("Names = %v", g.Names())
	}
	chain := g.NameChainZones("www.fbi.gov")
	if len(chain) != 2 || chain[0] != "gov" || chain[1] != "fbi.gov" {
		t.Errorf("chain = %v", chain)
	}
	hc := g.HostChainZones("dns.sprintip.com")
	if len(hc) != 2 || hc[0] != "com" || hc[1] != "sprintip.com" {
		t.Errorf("host chain = %v", hc)
	}
}

// TestJournalFrom holds the journal predicate to its one acceptance and
// its four refusals: nil, a graph of another store, an "older" epoch
// past the newer one, and a journal pruned past older.
func TestJournalFrom(t *testing.T) {
	twoEpochs := func() (*core.Builder, *core.Graph, *core.Graph) {
		b := core.NewBuilder(200)
		core.FeedSyntheticRange(b, 0, 100, 200)
		g1 := b.FinishEpoch()
		core.FeedSyntheticRange(b, 100, 200, 200)
		return b, g1, b.FinishEpoch()
	}
	_, g1, g2 := twoEpochs()
	_, foreign, _ := twoEpochs()
	pb, p1, p2 := twoEpochs()
	pb.PruneJournal(p2.Epoch())

	for _, tc := range []struct {
		name         string
		newer, older *core.Graph
		want         bool
	}{
		{"same store, intact journal", g2, g1, true},
		{"nil", g2, nil, false},
		{"foreign store", g2, foreign, false},
		{"older epoch above newer", g1, g2, false},
		{"pruned journal", p2, p1, false},
	} {
		if got := tc.newer.JournalFrom(tc.older); got != tc.want {
			t.Errorf("%s: JournalFrom = %v, want %v", tc.name, got, tc.want)
		}
	}
}
