package topology

import (
	"context"
	"reflect"
	"testing"

	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
)

// TestLiveEndToEnd boots the FBI world on real loopback sockets, crawls
// it over the wire, and checks the result matches the in-memory crawl.
func TestLiveEndToEnd(t *testing.T) {
	reg := FBIWorld()
	live, err := StartLive(context.Background(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if live.NumServers() == 0 {
		t.Fatal("no live servers")
	}

	r, err := live.Resolver()
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatalf("live resolve: %v", err)
	}
	if len(res.Addrs) != 1 {
		t.Fatalf("live resolve addrs: %v", res.Addrs)
	}

	// Walk dependencies over the wire.
	liveHosts := nsHostSet{}
	w := resolver.NewWalker(r)
	w.SetObserver(liveHosts)
	if _, err := w.WalkName(context.Background(), "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}

	// Compare against the direct in-memory walk.
	dr, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	directHosts := nsHostSet{}
	dw := resolver.NewWalker(dr)
	dw.SetObserver(directHosts)
	if _, err := dw.WalkName(context.Background(), "www.fbi.gov"); err != nil {
		t.Fatal(err)
	}
	if len(liveHosts) == 0 || !reflect.DeepEqual(liveHosts, directHosts) {
		t.Fatalf("live crawl found hosts %v, direct %v", liveHosts, directHosts)
	}

	// version.bind over the wire.
	banner, err := live.VersionBind(context.Background(), "reston-ns2.telemail.net")
	if err != nil {
		t.Fatal(err)
	}
	if banner != "BIND 8.2.4" {
		t.Errorf("live banner = %q", banner)
	}
}

// nsHostSet is a resolver.WalkObserver collecting every nameserver host
// a single-goroutine walk announces.
type nsHostSet map[string]bool

func (s nsHostSet) ZoneDiscovered(_, _ string, nsHosts []string) {
	for _, h := range nsHosts {
		s[h] = true
	}
}

func (s nsHostSet) ChainResolved(string, []string) {}
