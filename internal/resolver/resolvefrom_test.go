package resolver_test

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"testing"

	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

// scriptTransport answers every query through a function, so a test can
// hand the resolver replies no in-memory authority would produce.
type scriptTransport func(server netip.Addr, name string, qtype dnswire.Type) (*dnswire.Message, error)

func (f scriptTransport) Query(_ context.Context, server netip.Addr, name string, qtype dnswire.Type, _ dnswire.Class) (*dnswire.Message, error) {
	return f(server, name, qtype)
}

var (
	scriptRoot = resolver.ServerAddr{Host: "a.root.test", Addr: netip.MustParseAddr("198.41.0.4")}
	glueFirst  = netip.MustParseAddr("192.0.2.1")
	glueSecond = netip.MustParseAddr("192.0.2.2")
	answerAddr = netip.MustParseAddr("203.0.113.7")
)

// TestEnterZoneReferralMixedCaseGlue feeds the walker a referral whose
// two A glue records for one NS host spell the owner in different cases,
// one with a trailing dot. Both belong to the same host, so the zone's
// server must be the first address, and the answer must come from it.
func TestEnterZoneReferralMixedCaseGlue(t *testing.T) {
	rr := func(name string, data dnswire.RData) dnswire.RR {
		return dnswire.RR{Name: name, Class: dnswire.ClassINET, TTL: 60, Data: data}
	}
	tr := scriptTransport(func(server netip.Addr, name string, qtype dnswire.Type) (*dnswire.Message, error) {
		switch server {
		case scriptRoot.Addr:
			return &dnswire.Message{
				Authority: []dnswire.RR{rr("example.test", dnswire.NS{Host: "ns1.example.test"})},
				Additional: []dnswire.RR{
					rr("NS1.Example.TEST.", dnswire.A{Addr: glueFirst}),
					rr("ns1.EXAMPLE.test", dnswire.A{Addr: glueSecond}),
				},
			}, nil
		case glueFirst:
			m := &dnswire.Message{}
			m.Authoritative = true
			if qtype == dnswire.TypeA {
				m.Answers = []dnswire.RR{rr(name, dnswire.A{Addr: answerAddr})}
			}
			return m, nil
		}
		return nil, errors.New("unexpected server " + server.String())
	})
	r, err := resolver.New(tr, resolver.Config{Roots: []resolver.ServerAddr{scriptRoot}})
	if err != nil {
		t.Fatal(err)
	}
	w := resolver.NewWalker(r)
	apex, servers, err := w.Cut(context.Background(), "www.example.test")
	want := []resolver.ServerAddr{{Host: "ns1.example.test", Addr: glueFirst}}
	if err != nil || apex != "example.test" || !reflect.DeepEqual(servers, want) {
		t.Fatalf("Cut = %q %v (%v), want example.test %v", apex, servers, err, want)
	}
	res, err := r.ResolveFrom(context.Background(), w, "www.example.test", dnswire.TypeA)
	if err != nil {
		t.Fatalf("ResolveFrom: %v", err)
	}
	if len(res.Addrs) != 1 || res.Addrs[0] != answerAddr {
		t.Fatalf("addrs = %v, want [%v]", res.Addrs, answerAddr)
	}
}

// countedFBI returns a resolver over the §3.2 world whose upstream
// queries are counted and their zones logged, plus a walker over it that
// has walked www.fbi.gov. ftp.fbi.gov exists but is never walked.
func countedFBI(t *testing.T) (*topology.Registry, *resolver.Resolver, *transport.Counter, *zoneLog, *resolver.Walker) {
	t.Helper()
	reg := topology.FBIWorld()
	reg.Zone("fbi.gov").MustAddRR(dnswire.RR{
		Name: "ftp.fbi.gov", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")},
	})
	counter := transport.NewCounter()
	zones := &zoneLog{inner: transport.Chain(reg.Source(), counter.Middleware())}
	r, err := reg.Resolver(zones)
	if err != nil {
		t.Fatal(err)
	}
	w := resolver.NewWalker(r)
	if _, err := w.WalkName(context.Background(), "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	return reg, r, counter, zones, w
}

// TestResolveFromStartsAtCut checks where ResolveFrom's lookups begin:
// a walked name at its cut (one query, the final one), and a name the
// walker never walked at the deepest cut above it, descending from there
// through the query memo and never from the root. A nil walker is
// Resolve.
func TestResolveFromStartsAtCut(t *testing.T) {
	ctx := context.Background()
	_, r, counter, zones, w := countedFBI(t)
	rec := record(w)
	start := counter.Queries()
	want, err := r.Resolve(ctx, "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	rootCost := counter.Queries() - start

	if apex, _, err := w.Cut(ctx, "WWW.FBI.GOV."); apex != "fbi.gov" || err != nil {
		t.Fatalf("Cut(www.fbi.gov) = %q (%v), want fbi.gov", apex, err)
	}
	before := counter.Queries()
	got, err := r.ResolveFrom(ctx, w, "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if n := counter.Queries() - before; n != 1 {
		t.Errorf("ResolveFrom at the fbi.gov cut cost %d queries, want 1", n)
	}
	if !reflect.DeepEqual(got.Records, want.Records) || got.AuthZone != "fbi.gov" {
		t.Errorf("ResolveFrom = %v in %q, want %v in fbi.gov", got.Records, got.AuthZone, want.Records)
	}

	// An unwalked name under the cut: one NS probe and the final
	// question, both at fbi.gov; asked again, only the final question
	// crosses the transport. Its chain is never announced.
	zones.zones = nil
	for i, wantCost := range []int64{2, 1} {
		before := counter.Queries()
		got, err := r.ResolveFrom(ctx, w, "ftp.fbi.gov", dnswire.TypeA)
		if err != nil || len(got.Addrs) != 1 || got.AuthZone != "fbi.gov" {
			t.Fatalf("ResolveFrom(ftp.fbi.gov) = %+v (%v)", got, err)
		}
		if n := counter.Queries() - before; n != wantCost {
			t.Errorf("ResolveFrom(ftp.fbi.gov) #%d cost %d queries, want %d", i+1, n, wantCost)
		}
	}
	for _, z := range zones.zones {
		if z != "fbi.gov" {
			t.Fatalf("an unwalked name under a known cut contacted zone %q: %v", z, zones.zones)
		}
	}
	if _, ok := rec.chains["ftp.fbi.gov"]; ok {
		t.Error("ResolveFrom announced the chain of a name no walk surveyed")
	}

	// A nil walker is Resolve: the same records at the same cost.
	before = counter.Queries()
	got, err = r.ResolveFrom(ctx, nil, "www.fbi.gov", dnswire.TypeA)
	if err != nil || !reflect.DeepEqual(got.Records, want.Records) || counter.Queries()-before != rootCost {
		t.Errorf("ResolveFrom(nil) = %v (%v) in %d queries, want Resolve's %v in %d",
			got.Records, err, counter.Queries()-before, want.Records, rootCost)
	}
}

// TestResolveFromDeadCutFails: when every server of the judged cut is
// down, the resolution fails after asking only those servers; nothing
// restarts it at the root or anywhere else. A denial from a live cut is
// final.
func TestResolveFromDeadCutFails(t *testing.T) {
	ctx := context.Background()
	reg, r, _, zones, w := countedFBI(t)
	for _, h := range []string{"dns.sprintip.com", "dns2.sprintip.com"} {
		if err := reg.SetLame(h, true); err != nil {
			t.Fatal(err)
		}
	}
	zones.zones = nil
	if got, err := r.ResolveFrom(ctx, w, "www.fbi.gov", dnswire.TypeA); err == nil {
		t.Fatalf("ResolveFrom over a dead cut answered %v", got.Records)
	}
	if len(zones.zones) != 2 || zones.zones[0] != "fbi.gov" || zones.zones[1] != "fbi.gov" {
		t.Errorf("a dead cut's resolution contacted zones %v, want fbi.gov's two servers only", zones.zones)
	}

	for _, h := range []string{"dns.sprintip.com", "dns2.sprintip.com"} {
		if err := reg.SetLame(h, false); err != nil {
			t.Fatal(err)
		}
	}
	zones.zones = nil
	if _, err := r.ResolveFrom(ctx, w, "nonexistent.fbi.gov", dnswire.TypeA); !errors.Is(err, resolver.ErrNXDomain) {
		t.Errorf("ResolveFrom(nonexistent.fbi.gov) = %v, want ErrNXDomain", err)
	}
	for _, z := range zones.zones {
		if z != "fbi.gov" {
			t.Fatalf("NXDOMAIN under the cut contacted zone %q: %v", z, zones.zones)
		}
	}
}

// TestResolveFromDoesNotFollowReferral: a referral in reply to the final
// question names a cut below the one the walker found. It is not
// followed: the resolution fails as a lame delegation.
func TestResolveFromDoesNotFollowReferral(t *testing.T) {
	reg := topology.FBIWorld()
	sprint := map[netip.Addr]bool{reg.Server("dns.sprintip.com").Addr: true, reg.Server("dns2.sprintip.com").Addr: true}
	inner := reg.Source()
	defer inner.Close()
	referrals := 0
	tr := scriptTransport(func(server netip.Addr, name string, qtype dnswire.Type) (*dnswire.Message, error) {
		if sprint[server] && name == "www.fbi.gov" && qtype == dnswire.TypeA {
			referrals++
			return &dnswire.Message{Authority: []dnswire.RR{{
				Name: "www.fbi.gov", Class: dnswire.ClassINET, TTL: 60,
				Data: dnswire.NS{Host: "ns.elsewhere.test"},
			}}}, nil
		}
		return inner.Query(context.Background(), server, name, qtype, dnswire.ClassINET)
	})
	r, err := reg.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeA)
	if !errors.Is(err, resolver.ErrLameDelegation) {
		t.Fatalf("Resolve past a referral to the final question = %v, want ErrLameDelegation", err)
	}
	if referrals != 1 {
		t.Errorf("the final question was asked %d times, want 1", referrals)
	}
}
