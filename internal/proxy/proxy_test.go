package proxy_test

import (
	"context"
	"log"
	"net/netip"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dnstrust"
	"dnstrust/internal/crawler"
	"dnstrust/internal/dnsclient"
	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnsserver"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/proxy"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

// policyWorld builds the serving-path scenario: www.fbi.gov rides the
// paper's §3.2 chain through a hijackable BIND 8.2.4 server (refuse),
// www.example.com has a clean chain (allow), and www.solo.com sits on a
// single-server zone (flag: narrow cut).
func policyWorld(t *testing.T) *topology.World {
	t.Helper()
	b := topology.NewWorld()
	gov := []string{"a.gov-servers.net", "b.gov-servers.net"}
	gtld := []string{"a.gtld-servers.net", "b.gtld-servers.net", "c.gtld-servers.net"}
	b.Zone("com", gtld...)
	b.Zone("net", gtld...)
	b.Zone("gov", gov...)
	b.Zone("gov-servers.net", gov...)
	b.Zone("gtld-servers.net", gtld...)

	b.Zone("fbi.gov", "dns.sprintip.com", "dns2.sprintip.com")
	b.Zone("sprintip.com",
		"reston-ns1.telemail.net", "reston-ns2.telemail.net", "reston-ns3.telemail.net")
	b.Zone("telemail.net",
		"reston-ns1.telemail.net", "reston-ns2.telemail.net", "reston-ns3.telemail.net")
	b.SetBanner("dns.sprintip.com", "BIND 9.2.2")
	b.SetBanner("dns2.sprintip.com", "BIND 9.2.2")
	b.SetBanner("reston-ns1.telemail.net", "BIND 9.2.3")
	b.SetBanner("reston-ns2.telemail.net", "BIND 8.2.4") // hijackable
	b.Host("www.fbi.gov")

	b.Zone("example.com", "ns1.example.com", "ns2.example.com")
	b.SetBanner("ns1.example.com", "BIND 9.2.3")
	b.SetBanner("ns2.example.com", "BIND 9.2.3")
	b.Host("www.example.com")

	b.Zone("solo.com", "ns1.solo.com")
	b.SetBanner("ns1.solo.com", "BIND 9.2.3")
	b.Host("www.solo.com")

	return &topology.World{
		Registry: b.Finalize(),
		Corpus:   []string{"www.fbi.gov", "www.example.com", "www.solo.com"},
	}
}

// TestProxyEndToEndReplay is the serving-path acceptance test: a world
// is crawled and resolved once against the in-memory registry with a
// Record middleware; the proxy then serves real UDP clients entirely
// from that recording — the monitor rebuilds from the replay log, the
// upstream resolver reads from it, and a counter on the direct terminal
// proves zero terminal queries. A name whose chain contains the
// hijackable server comes back REFUSED (with no upstream resolution at
// all); a clean name resolves NOERROR with its address; a narrow-cut
// name is answered but flagged.
func TestProxyEndToEndReplay(t *testing.T) {
	ctx := context.Background()
	qlog := transport.NewLog()

	// Record phase: crawl the corpus and resolve the servable names
	// through one recorded chain.
	world := policyWorld(t)
	rec := transport.Chain(world.Registry.Source(), transport.Record(qlog))
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4, Source: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		t.Fatal(err)
	}
	r, err := resolver.New(rec, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"www.example.com", "www.solo.com"} {
		if _, err := r.Resolve(ctx, n, dnswire.TypeA); err != nil {
			t.Fatalf("record-phase resolve %s: %v", n, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if qlog.Len() == 0 {
		t.Fatal("recording captured nothing")
	}

	// Replay phase: the log is the only Internet. The counter sits on
	// the direct terminal beneath the replay fallthrough, so any query
	// the log cannot answer is counted — the test demands zero. The
	// same world supplies the root addresses (hand-built worlds assign
	// server addresses at Finalize, so a rebuilt world would not share
	// the recorded addressing).
	world2 := world
	m2, err := dnstrust.OpenWorld(ctx, world2, dnstrust.Options{Workers: 4, ReplayLog: qlog})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	cache, err := verdict.NewCache(m2.At().Survey(), verdict.Config{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	m2.OnCommit(func(v *dnstrust.View) { cache.Advance(v.Survey()) })
	if _, err := m2.Add(ctx, world2.Corpus...); err != nil {
		t.Fatal(err)
	}

	counter := transport.NewCounter()
	upstream := transport.ReplayThrough(qlog,
		transport.Chain(world2.Registry.Source(), counter.Middleware()))
	defer upstream.Close()
	r2, err := resolver.New(upstream, resolver.Config{Roots: world2.Registry.RootServers()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r2, Cache: cache, Logger: log.New(testWriter{t}, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dnsserver.Start(ctx, "127.0.0.1:0", dnsserver.Config{Handler: p})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dnsclient.New(dnsclient.Config{Timeout: 2 * time.Second})
	addr := srv.Addr().String()

	// The condemned chain: REFUSED, no answers, no upstream walk.
	resp, err := c.Query(ctx, addr, "www.fbi.gov", dnswire.TypeA, dnswire.ClassINET)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeRefused || len(resp.Answers) != 0 {
		t.Fatalf("www.fbi.gov: %s, want REFUSED with no answers", resp)
	}

	// The clean chain: NOERROR with the host's address.
	resp, err = c.Query(ctx, addr, "www.example.com", dnswire.TypeA, dnswire.ClassINET)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("www.example.com: %s, want NOERROR with answers", resp)
	}
	if !resp.RecursionAvailable {
		t.Error("proxy answers must set RA")
	}

	// The narrow-cut chain: answered, but flagged.
	resp, err = c.Query(ctx, addr, "www.solo.com", dnswire.TypeA, dnswire.ClassINET)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("www.solo.com: %s, want NOERROR with answers", resp)
	}

	if got := counter.Queries(); got != 0 {
		t.Errorf("terminal queries = %d, want 0 (everything from the recording)", got)
	}
	st := p.Stats()
	if st.Served != 3 || st.Refused != 1 || st.Flagged != 1 || st.Failed != 0 {
		t.Errorf("proxy stats = %+v, want served=3 refused=1 flagged=1 failed=0", st)
	}

	ctxSD, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctxSD); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestProxyUnknownNameProvisional checks the serving behavior for a name
// the monitor has never surveyed: the proxy answers immediately (flagged,
// provisional) and the queued crawl turns the verdict real.
func TestProxyUnknownNameProvisional(t *testing.T) {
	ctx := context.Background()
	world := policyWorld(t)
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{
		TTL:       time.Hour,
		AddLinger: time.Millisecond,
		Add: func(ctx context.Context, names ...string) error {
			_, err := m.Add(ctx, names...)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	m.OnCommit(func(v *dnstrust.View) { cache.Advance(v.Survey()) })
	if _, err := m.Add(ctx, "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}

	src := world.Registry.Source()
	defer src.Close()
	r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	req := dnswire.NewQuery(1, "www.example.com", dnswire.TypeA, dnswire.ClassINET)
	resp := p.ServeDNS(ctx, req)
	if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("unknown name first answer: %s, want NOERROR with answers", resp)
	}
	if st := p.Stats(); st.Flagged != 1 {
		t.Errorf("first answer should be flagged (provisional), stats %+v", st)
	}

	deadline := time.Now().Add(5 * time.Second)
	for cache.Lookup("www.example.com").Provisional {
		if time.Now().After(deadline) {
			t.Fatalf("queued crawl never landed: %+v", cache.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp = p.ServeDNS(ctx, dnswire.NewQuery(2, "www.example.com", dnswire.TypeA, dnswire.ClassINET))
	if resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("post-crawl answer: %s", resp)
	}
	if st := p.Stats(); st.Flagged != 1 {
		t.Errorf("post-crawl answer must not be flagged: %+v", st)
	}
}

// countingProxy serves from cache through a resolver whose upstream
// queries are counted.
func countingProxy(t *testing.T, world *topology.World, cache *verdict.Cache) (*proxy.Proxy, *resolver.Resolver, *transport.Counter) {
	t.Helper()
	counter := transport.NewCounter()
	src := transport.Chain(world.Registry.Source(), counter.Middleware())
	t.Cleanup(func() { src.Close() })
	r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return p, r, counter
}

// TestProxyResolvesFromJudgedCut: once the monitor has walked a name, an
// allowed query for it costs one upstream query — asked at the zone cut
// the verdict judged — and answers exactly as a root-started resolve. A
// survey with no walker (nil, as a fleet-merged survey has) answers from
// the root every time. A freshly restored monitor's walker is empty: the
// first query for a name descends from the root through it, and the
// second costs one upstream query, counted on the monitor's source and
// the proxy's together.
func TestProxyResolvesFromJudgedCut(t *testing.T) {
	ctx := context.Background()
	world := policyWorld(t)
	mon := transport.NewCounter()
	monitorSource := func() transport.Source {
		return transport.Chain(world.Registry.Source(), mon.Middleware())
	}
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4, Source: monitorSource()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "monitor.snap")
	if _, err := m.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	restored, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4, SnapshotFile: snap, Source: monitorSource()})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	// fromRoot stands for "two upstream queries or more".
	const fromRoot = -1
	judged := m.At().Survey()
	unjudged := *judged
	unjudged.Walker = nil
	for _, tc := range []struct {
		name   string
		survey *crawler.Survey
		costs  []int64 // of the first and the second query for a name
	}{
		{name: "judged", survey: judged, costs: []int64{1, 1}},
		{name: "nil-delegations", survey: &unjudged, costs: []int64{fromRoot, fromRoot}},
		{name: "restored", survey: restored.At().Survey(), costs: []int64{fromRoot, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := verdict.NewCache(tc.survey, verdict.Config{TTL: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer cache.Close()
			p, r, counter := countingProxy(t, world, cache)
			for _, name := range []string{"www.example.com", "www.solo.com"} {
				want, err := r.Resolve(ctx, name, dnswire.TypeA)
				if err != nil {
					t.Fatal(err)
				}
				for i, wantCost := range tc.costs {
					before := counter.Queries() + mon.Queries()
					resp := p.ServeDNS(ctx, dnswire.NewQuery(1, name, dnswire.TypeA, dnswire.ClassINET))
					cost := counter.Queries() + mon.Queries() - before
					if resp.RCode != dnswire.RCodeSuccess || !reflect.DeepEqual(resp.Answers, want.Records) {
						t.Fatalf("%s: %s, want NOERROR with %v", name, resp, want.Records)
					}
					if (wantCost == fromRoot && cost < 2) || (wantCost != fromRoot && cost != wantCost) {
						t.Errorf("%s query %d cost %d upstream queries, want %d (-1: from the root)", name, i+1, cost, wantCost)
					}
				}
			}
		})
	}
}

// TestProxyHonorsRetryBudget: the final question is bound by the proxy
// resolver's retry budget like every walker question. With a budget of
// one and every server of the judged cut down, an allowed query makes
// exactly one upstream attempt and answers SERVFAIL.
func TestProxyHonorsRetryBudget(t *testing.T) {
	ctx := context.Background()
	world := policyWorld(t)
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		t.Fatal(err)
	}
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	for _, h := range []string{"ns1.example.com", "ns2.example.com"} {
		if err := world.Registry.SetLame(h, true); err != nil {
			t.Fatal(err)
		}
	}
	counter := transport.NewCounter()
	src := transport.Chain(world.Registry.Source(), counter.Middleware())
	defer src.Close()
	r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers(), RetryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	resp := p.ServeDNS(ctx, dnswire.NewQuery(1, "www.example.com", dnswire.TypeA, dnswire.ClassINET))
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("every judged server down: %s, want SERVFAIL", resp)
	}
	if n := counter.Queries(); n != 1 {
		t.Errorf("a retry budget of 1 made %d upstream attempts", n)
	}
}

// TestProxyNeverSeenNameOneDescent: a name the monitor has never seen is
// answered (provisionally) by descending through the monitor's walker,
// so the Add that then surveys it reuses every question the answer
// asked. Across the monitor's source and the proxy's, each distinct
// question crosses the transport once, and the Add commits the zones
// the proxy's descent discovered.
func TestProxyNeverSeenNameOneDescent(t *testing.T) {
	ctx := context.Background()
	world := policyWorld(t)
	type question struct {
		name  string
		qtype dnswire.Type
	}
	var mu sync.Mutex
	asked := map[question]int{}
	ask := transport.Trace(func(_ netip.Addr, name string, qtype dnswire.Type) {
		name = dnsname.Canonical(name)
		if name == "version.bind" {
			return // the banner probe asks every new server by design
		}
		mu.Lock()
		asked[question{name, qtype}]++
		mu.Unlock()
	})
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{
		Workers: 4, Source: transport.Chain(world.Registry.Source(), ask),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	src := transport.Chain(world.Registry.Source(), ask)
	defer src.Close()
	r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	clear(asked)
	mu.Unlock()
	resp := p.ServeDNS(ctx, dnswire.NewQuery(1, "www.example.com", dnswire.TypeA, dnswire.ClassINET))
	if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) == 0 || p.Stats().Flagged != 1 {
		t.Fatalf("never-seen name: %s (stats %+v), want a flagged NOERROR answer", resp, p.Stats())
	}
	v, err := m.Add(ctx, "www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.TCB("www.example.com"); err != nil {
		t.Fatalf("the Add did not survey the name: %v", err)
	}
	if !slices.Contains(v.Survey().Graph.Zones(), "example.com") {
		t.Error("the committed generation lacks the zone the proxy's descent discovered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) == 0 {
		t.Fatal("no question crossed the transport")
	}
	for q, n := range asked {
		if n != 1 {
			t.Errorf("%s %v crossed the transport %d times, want once", q.name, q.qtype, n)
		}
	}
}

// forgeSource answers the queries its forge function claims and passes
// the rest to the wrapped source.
type forgeSource struct {
	transport.Source
	forge func(server netip.Addr, name string, qtype dnswire.Type) *dnswire.Message
}

func (f forgeSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	if m := f.forge(server, dnsname.Canonical(name), qtype); m != nil {
		return m, nil
	}
	return f.Source.Query(ctx, server, name, qtype, class)
}

// TestProxyAnswersOnlyThroughJudgedPath: after the crawl, the gov
// servers start re-delegating fbi.gov to a server nobody judged. An
// allowed www.fbi.gov still goes to the judged fbi.gov servers and never
// contacts the new one. When the judged servers themselves refer the
// final question to that server, the proxy answers SERVFAIL without
// following the referral.
func TestProxyAnswersOnlyThroughJudgedPath(t *testing.T) {
	ctx := context.Background()
	world := policyWorld(t)
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		t.Fatal(err)
	}
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour, Policy: verdict.Policy{FlagOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	evil := netip.MustParseAddr("203.0.113.53")
	referral := func(owner string) *dnswire.Message {
		return &dnswire.Message{
			Authority:  []dnswire.RR{{Name: owner, Class: dnswire.ClassINET, TTL: 60, Data: dnswire.NS{Host: "ns.evil.test"}}},
			Additional: []dnswire.RR{{Name: "ns.evil.test", Class: dnswire.ClassINET, TTL: 60, Data: dnswire.A{Addr: evil}}},
		}
	}
	gov := map[netip.Addr]bool{}
	for _, h := range []string{"a.gov-servers.net", "b.gov-servers.net"} {
		gov[world.Registry.Server(h).Addr] = true
	}
	judged := map[netip.Addr]bool{}
	for _, h := range []string{"dns.sprintip.com", "dns2.sprintip.com"} {
		judged[world.Registry.Server(h).Addr] = true
	}
	referBelow := false
	var contacted []netip.Addr
	src := transport.Chain(world.Registry.Source(),
		transport.Trace(func(server netip.Addr, _ string, _ dnswire.Type) { contacted = append(contacted, server) }),
		func(next transport.Source) transport.Source {
			return forgeSource{Source: next, forge: func(server netip.Addr, name string, _ dnswire.Type) *dnswire.Message {
				switch {
				case gov[server] && dnsname.IsSubdomain(name, "fbi.gov"):
					return referral("fbi.gov")
				case referBelow && judged[server] && name == "www.fbi.gov":
					return referral("www.fbi.gov")
				}
				return nil
			}}
		})
	defer src.Close()
	r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	resp := p.ServeDNS(ctx, dnswire.NewQuery(1, "www.fbi.gov", dnswire.TypeA, dnswire.ClassINET))
	if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("www.fbi.gov under a forged re-delegation: %s, want the judged servers' answer", resp)
	}
	for _, a := range contacted {
		if !judged[a] {
			t.Fatalf("an allowed www.fbi.gov contacted %v, outside the judged fbi.gov servers", a)
		}
	}

	referBelow, contacted = true, nil
	resp = p.ServeDNS(ctx, dnswire.NewQuery(2, "www.fbi.gov", dnswire.TypeA, dnswire.ClassINET))
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("a referral in reply to the final question: %s, want SERVFAIL", resp)
	}
	for _, a := range contacted {
		if !judged[a] {
			t.Fatalf("the proxy followed a referral below the judged cut to %v", a)
		}
	}
}

// TestProxyServesCNAME: an alias inside the judged zone and one into
// another zone both answer through the proxy exactly as a root-started
// resolve does.
func TestProxyServesCNAME(t *testing.T) {
	ctx := context.Background()
	world := policyWorld(t)
	cname := func(zone, owner, target string) {
		world.Registry.Zone(zone).MustAddRR(dnswire.RR{
			Name: owner, Class: dnswire.ClassINET, TTL: 60, Data: dnswire.CNAME{Target: target},
		})
	}
	cname("fbi.gov", "web.fbi.gov", "www.fbi.gov")
	cname("example.com", "alias.example.com", "www.solo.com")
	aliases := []string{"web.fbi.gov", "alias.example.com"}

	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, append(aliases, world.Corpus...)...); err != nil {
		t.Fatal(err)
	}
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour, Policy: verdict.Policy{FlagOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	p, r, _ := countingProxy(t, world, cache)
	for _, name := range aliases {
		want, err := r.Resolve(ctx, name, dnswire.TypeA)
		if err != nil || len(want.Records) == 0 || want.CanonicalName == name {
			t.Fatalf("root-started Resolve(%s) = %+v (%v), want an alias with records", name, want, err)
		}
		resp := p.ServeDNS(ctx, dnswire.NewQuery(1, name, dnswire.TypeA, dnswire.ClassINET))
		if resp.RCode != dnswire.RCodeSuccess || !reflect.DeepEqual(resp.Answers, want.Records) {
			t.Errorf("%s: %s, want NOERROR with %v", name, resp, want.Records)
		}
	}
}

// TestProxyServesDuringAdd races allowed queries against a monitor
// crawling new names into the walker they resolve through: every
// answer must still come back, and the race detector must stay quiet.
func TestProxyServesDuringAdd(t *testing.T) {
	ctx := context.Background()
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: 600})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	half := len(world.Corpus) / 2
	if _, err := m.Add(ctx, world.Corpus[:half]...); err != nil {
		t.Fatal(err)
	}
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour, Policy: verdict.Policy{FlagOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	m.OnCommit(func(v *dnstrust.View) { cache.Advance(v.Survey()) })
	p, _, _ := countingProxy(t, world, cache)

	done := make(chan error, 1)
	go func() {
		rest := world.Corpus[half:]
		for len(rest) > 0 {
			n := min(len(rest), 50)
			if _, err := m.Add(ctx, rest[:n]...); err != nil {
				done <- err
				return
			}
			rest = rest[n:]
		}
		done <- nil
	}()
	for i := 0; ; i++ {
		name := world.Corpus[i%len(world.Corpus)]
		resp := p.ServeDNS(ctx, dnswire.NewQuery(uint16(i), name, dnswire.TypeA, dnswire.ClassINET))
		if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) == 0 {
			t.Fatalf("%s: %s, want NOERROR with answers", name, resp)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(); st.Failed != 0 {
				t.Fatalf("%d upstream failures", st.Failed)
			}
			return
		default:
		}
	}
}

// replySink forces the alloc-gate baseline reply onto the heap.
var replySink *dnswire.Message

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) { w.t.Logf("%s", p); return len(p), nil }

// TestRefusePathAllocGate is the runtime complement of the
// //lint:hotpath annotation on ServeDNS: with logging disabled, a warm
// refused query — the path an attack hammers — must allocate nothing
// beyond constructing the reply message itself. The baseline is
// measured rather than hard-coded so the gate tracks dnswire's reply
// shape instead of a magic number.
//
// alloc-gate: dnstrust/internal/proxy.(*Proxy).ServeDNS
func TestRefusePathAllocGate(t *testing.T) {
	ctx := context.Background()
	world := policyWorld(t)
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	src := world.Registry.Source()
	defer src.Close()
	r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache}) // no Logger: the silent path
	if err != nil {
		t.Fatal(err)
	}

	req := dnswire.NewQuery(1, "www.fbi.gov", dnswire.TypeA, dnswire.ClassINET)
	if resp := p.ServeDNS(ctx, req); resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("warm-up: %s, want REFUSED", resp)
	}
	// The reply must escape in the baseline exactly as ServeDNS's does,
	// or the compiler stack-allocates it and the baseline undercounts.
	base := testing.AllocsPerRun(1000, func() { replySink = req.Reply() })
	got := testing.AllocsPerRun(1000, func() {
		if p.ServeDNS(ctx, req).RCode != dnswire.RCodeRefused {
			t.Fatal("not refused")
		}
	})
	if got > base {
		t.Errorf("refuse path allocates %.1f objects per query, want <= %.1f (reply construction only)", got, base)
	}
}
