package resolver_test

import (
	"context"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"weak"

	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

func newWalker(t testing.TB, reg *topology.Registry) *resolver.Walker {
	t.Helper()
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	return resolver.NewWalker(r)
}

// recorder is a WalkObserver that keeps what the walker announces: the
// event stream the crawl engine builds its graph from, and the only way
// discoveries leave a Walker.
type recorder struct {
	mu     sync.Mutex
	zones  map[string][]string // apex -> NS hosts
	chains map[string][]string // NS host or walked name -> zone chain
}

// record installs a fresh recorder on w; call it before the first walk.
func record(w *resolver.Walker) *recorder {
	rec := &recorder{zones: map[string][]string{}, chains: map[string][]string{}}
	w.SetObserver(rec)
	return rec
}

func (r *recorder) ZoneDiscovered(apex, _ string, nsHosts []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.zones[apex] = nsHosts
}

func (r *recorder) ChainResolved(key string, chain []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chains[key] = chain
}

// hosts returns every nameserver host of every announced zone, sorted —
// the survey's "nameservers discovered" set (the root is never announced).
func (r *recorder) hosts() []string {
	var out []string
	for _, ns := range r.zones {
		out = append(out, ns...)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

func TestWalkNameChain(t *testing.T) {
	reg := topology.FBIWorld()
	w := newWalker(t, reg)
	chain, err := w.WalkName(context.Background(), "www.fbi.gov")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gov", "fbi.gov"}
	if !reflect.DeepEqual(chain, want) {
		t.Errorf("chain = %v, want %v", chain, want)
	}
}

func TestWalkDiscoversTransitiveZones(t *testing.T) {
	reg := topology.FBIWorld()
	w := newWalker(t, reg)
	rec := record(w)
	if _, err := w.WalkName(context.Background(), "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	// The walk must discover the full dependency tail:
	// fbi.gov -> sprintip.com (com) -> telemail.net (net) -> gtld/gov-servers.
	for _, apex := range []string{"gov", "fbi.gov", "com", "sprintip.com", "net", "telemail.net", "gov-servers.net", "gtld-servers.net"} {
		if _, ok := rec.zones[apex]; !ok {
			t.Errorf("zone %q not discovered; have %v", apex, keys(rec.zones))
		}
	}
}

func keys(m map[string][]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestWalkHostChains(t *testing.T) {
	reg := topology.FBIWorld()
	w := newWalker(t, reg)
	rec := record(w)
	if _, err := w.WalkName(context.Background(), "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	// dns.sprintip.com's address chain runs through com then sprintip.com.
	chain, ok := rec.chains["dns.sprintip.com"]
	if !ok {
		t.Fatalf("no host chain for dns.sprintip.com; have %v", rec.chains)
	}
	if !reflect.DeepEqual(chain, []string{"com", "sprintip.com"}) {
		t.Errorf("chain = %v", chain)
	}
	// reston-ns2.telemail.net's chain runs through net then telemail.net.
	chain, ok = rec.chains["reston-ns2.telemail.net"]
	if !ok {
		t.Fatal("no host chain for reston-ns2.telemail.net")
	}
	if !reflect.DeepEqual(chain, []string{"net", "telemail.net"}) {
		t.Errorf("chain = %v", chain)
	}
}

func TestWalkMemoization(t *testing.T) {
	reg := topology.FBIWorld()
	w := newWalker(t, reg)
	ctx := context.Background()
	if _, err := w.WalkName(ctx, "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	q1 := w.Queries()
	// Walking a sibling name must reuse every cached zone: only the final
	// leaf queries are new.
	if err := reg.AddHostAddress("tips.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WalkName(ctx, "tips.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	q2 := w.Queries()
	if q2-q1 > 3 {
		t.Errorf("second walk issued %d queries; memoization is broken", q2-q1)
	}
	// Walking the same name again costs nothing.
	if _, err := w.WalkName(ctx, "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	if w.Queries() != q2 {
		t.Errorf("re-walk issued %d extra queries", w.Queries()-q2)
	}
}

func TestWalkFigure1Dependencies(t *testing.T) {
	reg := topology.Figure1World()
	w := newWalker(t, reg)
	rec := record(w)
	if _, err := w.WalkName(context.Background(), "www.cs.cornell.edu"); err != nil {
		t.Fatal(err)
	}
	// The paper's headline example: www.cs.cornell.edu depends indirectly
	// on a nameserver in umich.edu via rochester -> wisc -> umich.
	for _, apex := range []string{
		"edu", "cornell.edu", "cs.cornell.edu", "cit.cornell.edu",
		"cs.rochester.edu", "rochester.edu", "cc.rochester.edu", "utd.rochester.edu",
		"cs.wisc.edu", "wisc.edu", "itd.umich.edu", "umich.edu",
		"nstld.com", "gtld-servers.net",
	} {
		if _, ok := rec.zones[apex]; !ok {
			t.Errorf("zone %q missing from the dependency walk", apex)
		}
	}
	hosts := rec.hosts()
	found := false
	for _, h := range hosts {
		if h == "dns2.itd.umich.edu" {
			found = true
		}
	}
	if !found {
		t.Error("umich nameserver missing from discovered hosts")
	}
}

func TestWalkUkraineWorstCase(t *testing.T) {
	reg := topology.UkraineWorld()
	w := newWalker(t, reg)
	rec := record(w)
	if _, err := w.WalkName(context.Background(), "www.rkc.lviv.ua"); err != nil {
		t.Fatal(err)
	}
	// The Ukrainian chain reaches US universities and Australia.
	for _, apex := range []string{"ua", "lviv.ua", "rkc.lviv.ua", "berkeley.edu", "monash.edu.au", "telstra.net"} {
		if _, ok := rec.zones[apex]; !ok {
			t.Errorf("zone %q missing", apex)
		}
	}
	hosts := rec.hosts()
	if len(hosts) < 15 {
		t.Errorf("only %d hosts discovered; the Ukraine scenario should fan out wide", len(hosts))
	}
	// The paper's point: a Ukrainian name depends on servers in the US and
	// Australia.
	hostSet := map[string]bool{}
	for _, h := range hosts {
		hostSet[h] = true
	}
	for _, h := range []string{"ns.berkeley.edu", "ns.monash.edu.au", "ns1.stanford.edu", "ns.telstra.net"} {
		if !hostSet[h] {
			t.Errorf("expected global dependency %q in TCB", h)
		}
	}
}

func TestWalkNXDomainName(t *testing.T) {
	reg := topology.FBIWorld()
	w := newWalker(t, reg)
	if _, err := w.WalkName(context.Background(), "www.nonexistent.gov"); err == nil {
		t.Error("walking a nonexistent name should fail")
	}
}

func TestWalkConcurrent(t *testing.T) {
	reg := topology.Figure1World()
	w := newWalker(t, reg)
	names := []string{
		"www.cs.cornell.edu", "www.cs.cornell.edu", "www.cs.cornell.edu",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(names)*8)
	for i := 0; i < 8; i++ {
		for _, n := range names {
			wg.Add(1)
			go func(n string) {
				defer wg.Done()
				if _, err := w.WalkName(context.Background(), n); err != nil {
					errs <- err
				}
			}(n)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent walk: %v", err)
	}
}

// TestWalkStressOverlappingCorpus hammers one walker from many
// goroutines over an overlapping corpus (every goroutine walks every
// name, in a different rotation) and checks the single-flight/memo
// guarantee: the concurrent walk issues exactly as many transport
// queries as a fresh serial walker over the same world.
func TestWalkStressOverlappingCorpus(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 7, Names: 120})
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference.
	serial := newWalker(t, world.Registry)
	ss := record(serial)
	for _, n := range world.Corpus {
		if _, err := serial.WalkName(context.Background(), n); err != nil {
			t.Fatalf("serial walk %s: %v", n, err)
		}
	}

	concurrent := newWalker(t, world.Registry)
	cs := record(concurrent)
	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(rot int) {
			defer wg.Done()
			for i := range world.Corpus {
				name := world.Corpus[(i+rot)%len(world.Corpus)]
				if _, err := concurrent.WalkName(context.Background(), name); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent walk: %v", err)
	}

	if sq, cq := serial.Queries(), concurrent.Queries(); sq != cq {
		t.Errorf("transport queries: serial=%d concurrent=%d — single-flight dedup is leaking", sq, cq)
	}
	stats := concurrent.Stats()
	if stats.MemoHits == 0 {
		t.Error("no query-memo hits under a 32-goroutine overlapping walk")
	}

	// The discovered worlds must be identical.
	if !reflect.DeepEqual(ss.hosts(), cs.hosts()) {
		t.Error("serial and concurrent walks discovered different host sets")
	}
	if len(ss.zones) != len(cs.zones) {
		t.Errorf("zone counts differ: serial=%d concurrent=%d", len(ss.zones), len(cs.zones))
	}
}

// TestWalkCancellationIsolation: one walk's cancelled context must not
// poison a shared walker — no cancellation error may be cached as a
// host failure, and later walks with live contexts must succeed.
func TestWalkCancellationIsolation(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 9, Names: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Slow queries down so cancellation reliably lands mid-walk.
	tr := transport.Chain(world.Registry.Source(), transport.Latency(transport.FixedRTT(500*time.Microsecond)))
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	w := resolver.NewWalker(r)

	ctx1, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(rot int) {
			defer wg.Done()
			for i := range world.Corpus {
				if _, err := w.WalkName(ctx1, world.Corpus[(i+rot)%len(world.Corpus)]); err != nil {
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	wg.Wait()

	// Every name must still walk cleanly on the same walker.
	for _, n := range world.Corpus {
		if _, err := w.WalkName(context.Background(), n); err != nil {
			t.Fatalf("walk %s after unrelated cancellation: %v", n, err)
		}
	}
	if n := w.ForgetFailures(); n != 0 {
		t.Errorf("cancellation leaked into %d cached failures", n)
	}
}

func TestWalkLameHostRecorded(t *testing.T) {
	reg := topology.FBIWorld()
	// reston-ns3 goes dark: fbi.gov still resolves (other servers exist),
	// and the walker records nothing fatal.
	if err := reg.SetLame("reston-ns3.telemail.net", true); err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, reg)
	if _, err := w.WalkName(context.Background(), "www.fbi.gov"); err != nil {
		t.Fatalf("walk should survive a lame host: %v", err)
	}
}

// TestForgetFailuresReasksOnlyFailures: a memoized failure is served from
// memory within a generation, evicted at the boundary, and re-asked after
// it — while every successful discovery stays memoized.
func TestForgetFailuresReasksOnlyFailures(t *testing.T) {
	reg := topology.FBIWorld()
	ctx := context.Background()
	for _, h := range []string{"dns.sprintip.com", "dns2.sprintip.com"} {
		if err := reg.SetLame(h, true); err != nil {
			t.Fatal(err)
		}
	}
	w := newWalker(t, reg)
	if _, err := w.WalkName(ctx, "www.fbi.gov"); err == nil {
		t.Fatal("walk succeeded with every fbi.gov server lame")
	}
	asked := w.Queries()
	if _, err := w.WalkName(ctx, "www.fbi.gov"); err == nil || w.Queries() != asked {
		t.Fatalf("second walk: err %v, %d new queries; want the memoized failure", err, w.Queries()-asked)
	}

	if n := w.ForgetFailures(); n == 0 {
		t.Fatal("ForgetFailures evicted nothing after a failed walk")
	}
	if n := w.ForgetFailures(); n != 0 {
		t.Fatalf("second ForgetFailures evicted %d, want 0", n)
	}
	for _, h := range []string{"dns.sprintip.com", "dns2.sprintip.com"} {
		if err := reg.SetLame(h, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.WalkName(ctx, "www.fbi.gov"); err != nil {
		t.Fatalf("walk after the servers healed: %v", err)
	}
	healed := w.Queries()
	if healed == asked {
		t.Fatal("healed walk asked nothing: the failure was still memoized")
	}
	// Nothing successful was evicted: a re-walk is transport-free.
	if n := w.ForgetFailures(); n != 0 {
		t.Fatalf("ForgetFailures after a clean walk evicted %d, want 0", n)
	}
	if _, err := w.WalkName(ctx, "www.fbi.gov"); err != nil || w.Queries() != healed {
		t.Fatalf("re-walk: err %v, %d new queries; want 0", err, w.Queries()-healed)
	}
}

// TestWalkReusesClosedZones: once a corpus is walked, re-walking any of
// its names is answered from the walker's closed-zone marks — a constant
// few allocations whatever the name's trust closure, including the
// Ukraine worst case — instead of re-walking the closure.
func TestWalkReusesClosedZones(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: 400})
	if err != nil {
		t.Fatal(err)
	}
	ukraine := topology.UkraineWorld()
	for _, c := range []struct {
		reg   *topology.Registry
		names []string
	}{
		{world.Registry, world.Corpus},
		{ukraine, []string{"www.rkc.lviv.ua"}},
	} {
		w := newWalker(t, c.reg)
		ctx := context.Background()
		for _, n := range c.names {
			if _, err := w.WalkName(ctx, n); err != nil {
				t.Fatalf("walk %s: %v", n, err)
			}
		}
		asked := w.Queries()
		for _, n := range c.names {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := w.WalkName(ctx, n); err != nil {
					t.Fatalf("re-walk %s: %v", n, err)
				}
			})
			if allocs > 2 {
				t.Fatalf("re-walking %s allocates %.0f times, want <= 2: its closed zones were walked again", n, allocs)
			}
		}
		if w.Queries() != asked {
			t.Errorf("re-walks issued %d transport queries, want 0", w.Queries()-asked)
		}
	}
}

// TestWalkLameHostReaskedAfterHeal: a walk that met a lame host must not
// close its zones, or the host would never be walked again once it heals
// and ForgetFailures has evicted its failure. (In the FBI world no single
// lame server fails a host chain — reston-ns3's chain resolves through
// reston-ns1 — so the world here gives a host a zone of its own.)
func TestWalkLameHostReaskedAfterHeal(t *testing.T) {
	b := topology.NewWorld()
	gtld := []string{"a.gtld-servers.net", "b.gtld-servers.net"}
	b.Zone("com", gtld...)
	b.Zone("net", gtld...)
	b.Zone("gtld-servers.net", gtld...)
	b.Zone("corp.com", "ns1.host.net", "ns2.flaky.net")
	b.Zone("host.net", "ns1.host.net")
	b.Zone("flaky.net", "ns.flaky.net")
	b.Host("www.corp.com")
	reg := b.Finalize()
	// ns.flaky.net serves flaky.net alone: while it is dark, corp.com
	// still answers from ns1.host.net but ns2.flaky.net's chain fails.
	if err := reg.SetLame("ns.flaky.net", true); err != nil {
		t.Fatal(err)
	}
	w := newWalker(t, reg)
	rec := record(w)
	ctx := context.Background()
	if _, err := w.WalkName(ctx, "www.corp.com"); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.chains["ns2.flaky.net"]; ok {
		t.Fatal("ns2.flaky.net resolved while its zone was dark")
	}
	if err := reg.SetLame("ns.flaky.net", false); err != nil {
		t.Fatal(err)
	}
	w.ForgetFailures()
	if _, err := w.WalkName(ctx, "www.corp.com"); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.chains["ns2.flaky.net"], []string{"net", "flaky.net"}; !reflect.DeepEqual(got, want) {
		t.Errorf("healed host ns2.flaky.net: chain %v, want %v", got, want)
	}
}

// weakReplies passes queries on and takes a weak pointer to every reply
// it returns, so a test can tell whether anything still holds one.
type weakReplies struct {
	inner resolver.Transport
	mu    sync.Mutex
	refs  []weak.Pointer[dnswire.Message]
}

func (t *weakReplies) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	resp, err := t.inner.Query(ctx, server, name, qtype, class)
	if resp != nil {
		t.mu.Lock()
		t.refs = append(t.refs, weak.Make(resp))
		t.mu.Unlock()
	}
	return resp, err
}

// TestWalkerKeepsNoReplies crawls a world and collects garbage while the
// walker and its query memo are still live: the memo keeps the facts it
// read from each reply, never the reply, so every reply is collected.
func TestWalkerKeepsNoReplies(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 7, Names: 120})
	if err != nil {
		t.Fatal(err)
	}
	tr := &weakReplies{inner: world.Registry.Source()}
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	w := resolver.NewWalker(r)
	for _, name := range world.Corpus {
		if _, err := w.WalkName(context.Background(), name); err != nil {
			t.Fatalf("walk %s: %v", name, err)
		}
	}
	if w.MemoLen() == 0 || len(tr.refs) == 0 {
		t.Fatalf("crawl left %d memo entries from %d replies", w.MemoLen(), len(tr.refs))
	}
	runtime.GC()
	held := 0
	for _, ref := range tr.refs {
		if ref.Value() != nil {
			held++
		}
	}
	if held > 0 {
		t.Errorf("%d of %d replies still reachable after the crawl", held, len(tr.refs))
	}
	runtime.KeepAlive(w)
}

// BenchmarkWalkerMemoBytes crawls a 2000-name world and reports what
// the query memo costs per answered question: the live heap that
// ReleaseQueryMemo frees, after a settled GC, over the memo's entries.
func BenchmarkWalkerMemoBytes(b *testing.B) {
	world, err := topology.Generate(topology.GenParams{Seed: 1, Names: 2000})
	if err != nil {
		b.Fatal(err)
	}
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	var perEntry float64
	for i := 0; i < b.N; i++ {
		w := newWalker(b, world.Registry)
		for _, name := range world.Corpus {
			// A name whose walk fails still leaves its questions memoized.
			_, _ = w.WalkName(context.Background(), name)
		}
		b.StopTimer()
		entries := w.MemoLen()
		before := liveHeap()
		w.ReleaseQueryMemo()
		perEntry += (before - liveHeap()) / float64(entries)
		runtime.KeepAlive(w)
		b.StartTimer()
	}
	b.ReportMetric(perEntry/float64(b.N), "B/memo-entry")
}
