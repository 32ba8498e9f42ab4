package verdict_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
	"dnstrust/internal/verdict"
)

// policyWorld is a hand-built world with one name per policy outcome:
// www.fbi.gov rides the paper's §3.2 chain with a hijackable BIND 8.2.4
// server (refuse), www.example.com has a clean two-server chain (allow),
// and www.solo.com hangs off a single-server zone (flag: narrow cut).
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

func openEngine(t *testing.T, world *topology.World) *crawler.Engine {
	t.Helper()
	tr := world.Registry.Source()
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	e := crawler.NewEngine(r, world.Registry.ProbeFunc(tr), crawler.Config{Workers: 4, Source: tr})
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEvaluateLevels(t *testing.T) {
	world := policyWorld(t)
	e := openEngine(t, world)
	s, err := e.Add(context.Background(), world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	memo := analysis.NewChainMemo()

	v := verdict.Evaluate(s, memo, verdict.Policy{}, "www.fbi.gov")
	if v.Level != verdict.Refuse || v.Reasons&verdict.ReasonCompromisable == 0 {
		t.Errorf("www.fbi.gov = %s (%s), want refuse/compromisable", v.Level, v.Reasons)
	}
	if v.TCBSize < 1 || v.Generation != s.Stats.Generation {
		t.Errorf("www.fbi.gov tcb=%d gen=%d", v.TCBSize, v.Generation)
	}

	v = verdict.Evaluate(s, memo, verdict.Policy{}, "www.example.com")
	if v.Level != verdict.Allow || v.Reasons != 0 {
		t.Errorf("www.example.com = %s (%s), want allow", v.Level, v.Reasons)
	}

	v = verdict.Evaluate(s, memo, verdict.Policy{}, "www.solo.com")
	if v.Level != verdict.Flag || v.Reasons&verdict.ReasonNarrowCut == 0 {
		t.Errorf("www.solo.com = %s (%s), want flag/narrow-cut", v.Level, v.Reasons)
	}
	if v.Cut != 1 {
		t.Errorf("www.solo.com cut = %d, want 1", v.Cut)
	}

	// A tight TCB budget flags even the clean chain.
	v = verdict.Evaluate(s, memo, verdict.Policy{MaxTCB: 2}, "www.example.com")
	if v.Level != verdict.Flag || v.Reasons&verdict.ReasonExcessiveTCB == 0 {
		t.Errorf("tight MaxTCB: %s (%s), want flag/excessive-tcb", v.Level, v.Reasons)
	}

	// FlagOnly downgrades the refuse to a flag, keeping the reasons.
	v = verdict.Evaluate(s, memo, verdict.Policy{FlagOnly: true}, "www.fbi.gov")
	if v.Level != verdict.Flag || v.Reasons&verdict.ReasonCompromisable == 0 {
		t.Errorf("FlagOnly: %s (%s), want flag/compromisable", v.Level, v.Reasons)
	}

	// Never-seen names are provisional flags; failed walks are not.
	v = verdict.Evaluate(s, memo, verdict.Policy{}, "www.never-seen.org")
	if v.Level != verdict.Flag || !v.Provisional || v.Reasons&verdict.ReasonUnknown == 0 {
		t.Errorf("unknown name: %s (%s, provisional=%v)", v.Level, v.Reasons, v.Provisional)
	}
	if s, err = e.Add(context.Background(), "www.no-such-tld.zzz"); err != nil {
		t.Fatal(err)
	}
	v = verdict.Evaluate(s, memo, verdict.Policy{}, "www.no-such-tld.zzz")
	if v.Level != verdict.Flag || v.Provisional || v.Reasons&verdict.ReasonUnresolved == 0 {
		t.Errorf("failed name: %s (%s, provisional=%v), want flag/unresolved", v.Level, v.Reasons, v.Provisional)
	}
}

func newCache(t *testing.T, s *crawler.Survey, cfg verdict.Config) *verdict.Cache {
	t.Helper()
	c, err := verdict.NewCache(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCacheHitAndTTL(t *testing.T) {
	world := policyWorld(t)
	e := openEngine(t, world)
	s, err := e.Add(context.Background(), world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, s, verdict.Config{TTL: 50 * time.Millisecond})

	v1 := c.Lookup("www.example.com")
	v2 := c.Lookup("www.example.com")
	if v1 != v2 {
		t.Error("second lookup should serve the cached verdict")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
	// Case-insensitive: hits the same entry without recomputing.
	if got := c.Lookup("WWW.Example.COM."); got != v1 {
		t.Error("lookup must canonicalize before hashing")
	}

	time.Sleep(60 * time.Millisecond)
	v3 := c.Lookup("www.example.com")
	if v3 == v1 {
		t.Error("expired verdict must be recomputed")
	}
	if got := c.Stats().Misses; got != 2 {
		t.Errorf("misses after TTL expiry = %d, want 2", got)
	}
}

// TestCacheHitPathZeroAlloc is the acceptance gate on the hot path: a
// warm lookup must not allocate.
//
// alloc-gate: dnstrust/internal/verdict.(*Cache).Lookup
func TestCacheHitPathZeroAlloc(t *testing.T) {
	world := policyWorld(t)
	e := openEngine(t, world)
	s, err := e.Add(context.Background(), world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, s, verdict.Config{TTL: time.Hour})
	for _, n := range world.Corpus {
		c.Lookup(n)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Lookup("www.example.com") == nil {
			t.Fatal("nil verdict")
		}
	})
	if allocs != 0 {
		t.Errorf("hit path allocates %.1f objects per lookup, want 0", allocs)
	}
}

// TestMissCostIndependentOfFill holds a miss to the cost of storing one
// verdict: with a one-nanosecond TTL every lookup misses and stores
// again, and the bytes one such lookup allocates on a cache holding the
// whole corpus must match those on an empty cache. A miss that copies
// its shard pays for every entry the shard already holds.
func TestMissCostIndependentOfFill(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 3, Names: 4000})
	if err != nil {
		t.Fatal(err)
	}
	e := openEngine(t, world)
	s, err := e.Add(context.Background(), world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	names := s.Names
	empty := newCache(t, s, verdict.Config{TTL: time.Nanosecond})
	full := newCache(t, s, verdict.Config{TTL: time.Nanosecond})
	for _, n := range names[1:] {
		full.Lookup(n)
	}
	const lookups = 200
	perMiss := func(c *verdict.Cache) uint64 {
		c.Lookup(names[0]) // the chain's analysis is memoized from here on
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < lookups; i++ {
			c.Lookup(names[0])
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / lookups
	}
	emptyB, fullB := perMiss(empty), perMiss(full)
	t.Logf("bytes per miss: empty cache %d, cache of %d entries %d", emptyB, full.Stats().Size, fullB)
	if fullB > emptyB+256 {
		t.Errorf("a miss on a full cache allocates %d B, on an empty one %d B: a miss must not copy its shard", fullB, emptyB)
	}
}

// TestAdvancePreciseInvalidation checks that a generation commit evicts
// exactly the names the change journal touched: the warm verdict for an
// untouched name survives by pointer identity (no full flush), while a
// provisional verdict for a name the commit surveyed is dropped and
// replaced on the next lookup.
func TestAdvancePreciseInvalidation(t *testing.T) {
	world := policyWorld(t)
	e := openEngine(t, world)
	ctx := context.Background()
	s, err := e.Add(ctx, "www.fbi.gov", "www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, s, verdict.Config{TTL: time.Hour})

	warm := c.Lookup("www.example.com")
	prov := c.Lookup("www.solo.com")
	if !prov.Provisional {
		t.Fatalf("www.solo.com before its crawl should be provisional, got %+v", prov)
	}

	s2, err := e.Add(ctx, "www.solo.com")
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(s2)

	if got := c.Lookup("www.example.com"); got != warm {
		t.Error("untouched name was evicted — invalidation is not precise")
	}
	real := c.Lookup("www.solo.com")
	if real.Provisional || real.Level != verdict.Flag || real.Reasons&verdict.ReasonNarrowCut == 0 {
		t.Errorf("post-commit www.solo.com = %s (%s, provisional=%v), want real flag/narrow-cut",
			real.Level, real.Reasons, real.Provisional)
	}
	st := c.Stats()
	if st.Flushes != 0 {
		t.Errorf("flushes = %d, want 0 (same store, complete journal)", st.Flushes)
	}
	if st.Evicted == 0 {
		t.Error("commit should have evicted the surveyed name")
	}
}

// TestProvisionalAddLoop exercises the full never-seen-name loop: the
// first lookup answers provisionally and queues a crawl; once the crawl
// commits and Advance runs, lookups serve the real verdict.
func TestProvisionalAddLoop(t *testing.T) {
	world := policyWorld(t)
	e := openEngine(t, world)
	ctx := context.Background()
	s, err := e.Add(ctx, "www.fbi.gov")
	if err != nil {
		t.Fatal(err)
	}
	var c *verdict.Cache
	c = newCache(t, s, verdict.Config{
		TTL:       time.Hour,
		AddLinger: time.Millisecond,
		Add: func(ctx context.Context, names ...string) error {
			s, err := e.Add(ctx, names...)
			if err == nil {
				c.Advance(s)
			}
			return err
		},
	})

	v := c.Lookup("www.example.com")
	if !v.Provisional || v.Level != verdict.Flag {
		t.Fatalf("first lookup = %s (provisional=%v), want provisional flag", v.Level, v.Provisional)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		v = c.Lookup("www.example.com")
		if !v.Provisional {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crawl never landed; still provisional (stats %+v)", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.Level != verdict.Allow {
		t.Errorf("post-crawl verdict = %s (%s), want allow", v.Level, v.Reasons)
	}
	if st := c.Stats(); st.AddBatches == 0 || st.Enqueued == 0 {
		t.Errorf("add queue never ran: %+v", st)
	}
}

// TestProvisionalFailedNameUpgrades covers the journal blind spot: a name
// whose queued crawl fails outright never appears in the commit's change
// journal, so only the adder's explicit batch eviction can retire its
// provisional entry. The verdict must turn into a definitive (non-
// provisional) unresolved flag well before the TTL.
func TestProvisionalFailedNameUpgrades(t *testing.T) {
	world := policyWorld(t)
	e := openEngine(t, world)
	ctx := context.Background()
	s, err := e.Add(ctx, "www.fbi.gov")
	if err != nil {
		t.Fatal(err)
	}
	var c *verdict.Cache
	c = newCache(t, s, verdict.Config{
		TTL:       time.Hour,
		AddLinger: time.Millisecond,
		Add: func(ctx context.Context, names ...string) error {
			s, err := e.Add(ctx, names...)
			if err == nil {
				c.Advance(s)
			}
			return err
		},
	})

	const name = "www.no-such-tld.zzz"
	if v := c.Lookup(name); !v.Provisional {
		t.Fatalf("first lookup: want provisional, got %s (%s)", v.Level, v.Reasons)
	}
	deadline := time.Now().Add(5 * time.Second)
	v := c.Lookup(name)
	for v.Provisional {
		if time.Now().After(deadline) {
			t.Fatalf("failed-name verdict never upgraded (stats %+v)", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
		v = c.Lookup(name)
	}
	if v.Level != verdict.Flag || v.Reasons&verdict.ReasonUnresolved == 0 {
		t.Errorf("post-crawl verdict = %s (%s), want unresolved flag", v.Level, v.Reasons)
	}
}
