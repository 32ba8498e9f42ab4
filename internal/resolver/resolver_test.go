package resolver_test

import (
	"context"
	"errors"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

// zoneLog records the zone tag of every query it passes on: which zones'
// servers a resolution contacted.
type zoneLog struct {
	inner resolver.Transport
	mu    sync.Mutex
	zones []string
}

func (z *zoneLog) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	zone, _ := transport.ZoneFromContext(ctx)
	z.mu.Lock()
	z.zones = append(z.zones, zone)
	z.mu.Unlock()
	return z.inner.Query(ctx, server, name, qtype, class)
}

func (z *zoneLog) seen(zone string) bool {
	z.mu.Lock()
	defer z.mu.Unlock()
	return slices.Contains(z.zones, zone)
}

func fbiResolver(t *testing.T) (*topology.Registry, *resolver.Resolver) {
	t.Helper()
	reg := topology.FBIWorld()
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	return reg, r
}

func TestResolveSimple(t *testing.T) {
	_, r := fbiResolver(t)
	res, err := r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(res.Addrs) != 1 {
		t.Fatalf("got %d addresses", len(res.Addrs))
	}
	if res.AuthZone != "fbi.gov" {
		t.Errorf("auth zone = %q, want fbi.gov", res.AuthZone)
	}
}

func TestResolveTraceShowsChain(t *testing.T) {
	reg := topology.FBIWorld()
	zones := &zoneLog{inner: reg.Source()}
	r, err := reg.Resolver(zones)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	// The walk must show root -> gov -> fbi.gov, and inside it the
	// address resolution of dns.sprintip.com (through com/sprintip.com).
	for _, want := range []string{"", "gov", "fbi.gov", "com", "sprintip.com"} {
		if !zones.seen(want) {
			t.Errorf("resolution never contacted zone %q; contacted %v", want, zones.zones)
		}
	}
}

func TestResolveNXDomain(t *testing.T) {
	_, r := fbiResolver(t)
	_, err := r.Resolve(context.Background(), "nonexistent.fbi.gov", dnswire.TypeA)
	if !errors.Is(err, resolver.ErrNXDomain) {
		t.Errorf("got %v, want ErrNXDomain", err)
	}
}

func TestResolveNoData(t *testing.T) {
	_, r := fbiResolver(t)
	_, err := r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeMX)
	if !errors.Is(err, resolver.ErrNoData) {
		t.Errorf("got %v, want ErrNoData", err)
	}
}

func TestResolveCNAME(t *testing.T) {
	reg := topology.FBIWorld()
	z := reg.Zone("fbi.gov")
	z.MustAddRR(dnswire.RR{
		Name: "web.fbi.gov", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.CNAME{Target: "www.fbi.gov"},
	})
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(context.Background(), "web.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.CanonicalName != "www.fbi.gov" {
		t.Errorf("canonical name = %q", res.CanonicalName)
	}
	if len(res.Addrs) != 1 {
		t.Errorf("got %d addresses", len(res.Addrs))
	}
}

func TestResolveCNAMELoop(t *testing.T) {
	reg := topology.FBIWorld()
	z := reg.Zone("fbi.gov")
	z.MustAddRR(dnswire.RR{
		Name: "a.fbi.gov", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.CNAME{Target: "b.fbi.gov"},
	})
	z.MustAddRR(dnswire.RR{
		Name: "b.fbi.gov", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.CNAME{Target: "a.fbi.gov"},
	})
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "a.fbi.gov", dnswire.TypeA); !errors.Is(err, resolver.ErrCNAMELoop) {
		t.Errorf("got %v, want ErrCNAMELoop", err)
	}
}

func TestResolveFigure1(t *testing.T) {
	reg := topology.Figure1World()
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(context.Background(), "www.cs.cornell.edu", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if res.AuthZone != "cs.cornell.edu" {
		t.Errorf("auth zone = %q", res.AuthZone)
	}
	if len(res.Addrs) != 1 {
		t.Errorf("addresses = %v", res.Addrs)
	}
}

func TestResolveLameServerFallback(t *testing.T) {
	reg := topology.FBIWorld()
	// Knock out one fbi.gov server; resolution must still succeed via the
	// other.
	if err := reg.SetLame("dns.sprintip.com", true); err != nil {
		t.Fatal(err)
	}
	lame := reg.Server("dns.sprintip.com").Addr
	contacted := false
	src := transport.Chain(reg.Source(), transport.Trace(func(server netip.Addr, _ string, _ dnswire.Type) {
		contacted = contacted || server == lame
	}))
	r, err := reg.Resolver(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeA); err != nil {
		t.Fatalf("Resolve with one lame server: %v", err)
	}
	if !contacted {
		t.Error("the resolution never tried the lame server")
	}
}

func TestResolveAllServersLame(t *testing.T) {
	reg := topology.FBIWorld()
	for _, h := range []string{"dns.sprintip.com", "dns2.sprintip.com"} {
		if err := reg.SetLame(h, true); err != nil {
			t.Fatal(err)
		}
	}
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeA); err == nil {
		t.Error("resolution should fail when every zone server is down")
	}
}

func TestResolveContextCancelled(t *testing.T) {
	_, r := fbiResolver(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Resolve(ctx, "www.fbi.gov", dnswire.TypeA); err == nil {
		t.Error("cancelled context must abort resolution")
	}
}

func TestNewRequiresRoots(t *testing.T) {
	if _, err := resolver.New(nil, resolver.Config{}); err == nil {
		t.Error("New without roots must fail")
	}
}
