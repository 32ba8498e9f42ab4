package resolver_test

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"testing"

	"dnstrust/internal/dnsname"
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

// TestFollowReferralMixedCaseGlue feeds a referral whose two A glue
// records for one NS host spell the owner in different cases, one with a
// trailing dot. Both belong to the same host, so the descent must go
// through the first address, as the walker's glue harvest does.
func TestFollowReferralMixedCaseGlue(t *testing.T) {
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
			m := &dnswire.Message{Answers: []dnswire.RR{rr(name, dnswire.A{Addr: answerAddr})}}
			m.Authoritative = true
			return m, nil
		}
		return nil, errors.New("unexpected server " + server.String())
	})
	r, err := resolver.New(tr, resolver.Config{Roots: []resolver.ServerAddr{scriptRoot}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(context.Background(), "www.example.test", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v\ntrace: %+v", err, res.Trace)
	}
	if len(res.Addrs) != 1 || res.Addrs[0] != answerAddr {
		t.Fatalf("addrs = %v, want [%v]", res.Addrs, answerAddr)
	}
	if last := res.Trace[len(res.Trace)-1]; last.Server.Addr != glueFirst {
		t.Fatalf("answer came from %v, want the first glue address %v", last.Server.Addr, glueFirst)
	}
}

// fixedCut is a Delegations that always names one cut.
type fixedCut struct {
	apex    string
	servers []resolver.ServerAddr
}

func (c fixedCut) DeepestCut(string) (string, []resolver.ServerAddr) { return c.apex, c.servers }

// hideCut forgets one zone of an underlying memory, so resolutions
// below it start one cut higher and must follow a referral.
type hideCut struct {
	d    resolver.Delegations
	hide string
}

func (h hideCut) DeepestCut(name string) (string, []resolver.ServerAddr) {
	apex, srv := h.d.DeepestCut(name)
	if apex == h.hide {
		parent, _ := dnsname.Parent(apex)
		return h.d.DeepestCut(parent)
	}
	return apex, srv
}

// countedFBI returns a resolver over the §3.2 world whose upstream
// queries are counted, plus a walker that has walked www.fbi.gov.
func countedFBI(t *testing.T) (*resolver.Resolver, *transport.Counter, *resolver.Walker) {
	t.Helper()
	reg := topology.FBIWorld()
	counter := transport.NewCounter()
	src := transport.Chain(reg.Source(), counter.Middleware())
	t.Cleanup(func() { src.Close() })
	r, err := reg.Resolver(src)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	w := resolver.NewWalker(wr)
	if _, err := w.WalkName(context.Background(), "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	return r, counter, w
}

// TestResolveFromStartsAtCut checks where ResolveFrom's lookups begin:
// the name at its deepest known cut (one query), and a glue-less
// nameserver met on a referral at that host's own cut, so the root is
// never asked while the memory covers the chain.
func TestResolveFromStartsAtCut(t *testing.T) {
	ctx := context.Background()
	r, counter, w := countedFBI(t)
	want, err := r.Resolve(ctx, "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}

	if apex, _ := w.DeepestCut("WWW.FBI.GOV."); apex != "fbi.gov" {
		t.Fatalf("DeepestCut(www.fbi.gov) = %q, want fbi.gov", apex)
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

	// Without the fbi.gov cut, the walk starts at gov and follows its
	// referral to fbi.gov, whose servers have no glue: their addresses
	// resolve from the sprintip.com cut, not from the root.
	got, err = r.ResolveFrom(ctx, hideCut{d: w, hide: "fbi.gov"}, "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Errorf("ResolveFrom via gov = %v, want %v", got.Records, want.Records)
	}
	for _, st := range got.Trace {
		if st.Zone == "" {
			t.Fatalf("ResolveFrom asked the root although every cut on the way was known: %+v", got.Trace)
		}
	}

	// A nil memory is Resolve.
	got, err = r.ResolveFrom(ctx, nil, "www.fbi.gov", dnswire.TypeA)
	if err != nil || !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Errorf("ResolveFrom(nil) trace %+v (%v), want Resolve's %+v", got.Trace, err, want.Trace)
	}
}

// TestResolveFromFallsBackToRoot: when every server of the starting cut
// fails, the lookup restarts once from the root hints and answers as
// Resolve does; a denial from a live cut is final.
func TestResolveFromFallsBackToRoot(t *testing.T) {
	ctx := context.Background()
	r, counter, w := countedFBI(t)
	want, err := r.Resolve(ctx, "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}

	// A cut whose only server does not exist on this Internet.
	dead := fixedCut{apex: "fbi.gov", servers: []resolver.ServerAddr{{Host: "gone.test", Addr: netip.MustParseAddr("192.0.2.99")}}}
	got, err := r.ResolveFrom(ctx, dead, "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatalf("ResolveFrom over a dead cut: %v\ntrace: %+v", err, got.Trace)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Errorf("ResolveFrom over a dead cut = %v, want %v", got.Records, want.Records)
	}
	if got.Trace[0].Kind != resolver.StepFailure || got.Trace[1].Zone != "" {
		t.Errorf("want one failed cut query, then the root: %+v", got.Trace)
	}

	// NXDOMAIN from the judged cut is final: one query, no restart.
	before := counter.Queries()
	if _, err := r.ResolveFrom(ctx, w, "nonexistent.fbi.gov", dnswire.TypeA); !errors.Is(err, resolver.ErrNXDomain) {
		t.Errorf("ResolveFrom(nonexistent.fbi.gov) = %v, want ErrNXDomain", err)
	}
	if n := counter.Queries() - before; n != 1 {
		t.Errorf("NXDOMAIN from the cut cost %d queries, want 1", n)
	}
}
