package core_test

import (
	"errors"
	"reflect"
	"testing"

	"dnstrust/internal/core"
)

// TestBuilderDoneExclusive is the regression test for the old
// double-counting bug: a name reported both Complete and Fail counted
// twice in Done(). The maps must be mutually exclusive, last report wins.
func TestBuilderDoneExclusive(t *testing.T) {
	b := core.NewBuilder(0)
	b.ObserveZone("com", []string{"a.ns.com"})
	b.ObserveChain("a.ns.com", []string{"com"})

	// Fail then Complete: the success wins.
	b.Fail("www.x.com", errors.New("transient"))
	b.Complete("www.x.com", []string{"com"})
	if got := b.Done(); got != 1 {
		t.Fatalf("Done after Fail+Complete = %d, want 1", got)
	}
	if len(b.Failed()) != 0 {
		t.Errorf("Failed = %v, want empty after Complete superseded the failure", b.Failed())
	}
	if names := b.Names(); len(names) != 1 || names[0] != "www.x.com" {
		t.Errorf("Names = %v", names)
	}

	// Complete then Fail: the failure wins.
	b.Complete("www.y.com", []string{"com"})
	b.Fail("www.y.com", errors.New("lame"))
	if got := b.Done(); got != 2 {
		t.Fatalf("Done after Complete+Fail = %d, want 2", got)
	}
	if _, ok := b.Failed()["www.y.com"]; !ok {
		t.Error("www.y.com must be in Failed after the failure superseded the success")
	}
	for _, n := range b.Names() {
		if n == "www.y.com" {
			t.Error("www.y.com must not be in Names after Fail")
		}
	}
}

// TestBuilderChainDedup verifies that identical delegation chains intern
// to one shared chain id and one []int32, and distinct chains do not.
func TestBuilderChainDedup(t *testing.T) {
	b := core.NewBuilder(0)
	b.ObserveZone("com", []string{"a.ns.com"})
	b.ObserveZone("x.com", []string{"ns.x.com"})
	b.ObserveZone("y.com", []string{"ns.y.com"})
	b.ObserveChain("a.ns.com", []string{"com"})
	b.ObserveChain("ns.x.com", []string{"com", "x.com"})
	b.ObserveChain("ns.y.com", []string{"com", "y.com"})

	b.Complete("www.x.com", []string{"com", "x.com"})
	b.Complete("mail.x.com", []string{"com", "x.com"})
	b.Complete("www.y.com", []string{"com", "y.com"})
	g := b.Finish()

	c1, ok1 := g.NameChainID("www.x.com")
	c2, ok2 := g.NameChainID("mail.x.com")
	c3, ok3 := g.NameChainID("www.y.com")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("names missing from graph")
	}
	if c1 != c2 {
		t.Errorf("identical chains interned to different ids: %d vs %d", c1, c2)
	}
	if c1 == c3 {
		t.Error("distinct chains share a chain id")
	}
	// The chain table holds exactly the distinct chains seen (the two
	// name chains plus the NS hosts' chains: "com", and the two domain
	// chains are shared with the names').
	if got := g.NumChains(); got != 3 {
		t.Errorf("NumChains = %d, want 3 (com | com,x.com | com,y.com)", got)
	}
	// Names on the same chain share the TCB slice, not just its content.
	t1, _ := g.TCBIDs("www.x.com")
	t2, _ := g.TCBIDs("mail.x.com")
	if len(t1) > 0 && len(t2) > 0 && &t1[0] != &t2[0] {
		t.Error("names on one chain must share one TCB slice")
	}
}

// TestBuilderPendingChainAttach covers the streaming race the pending
// set exists for: a host's chain event arriving before any zone lists
// the host as a nameserver must still attach once the zone shows up.
func TestBuilderPendingChainAttach(t *testing.T) {
	b := core.NewBuilder(0)
	b.ObserveZone("com", []string{"a.ns.com"})
	b.ObserveChain("a.ns.com", []string{"com"})
	// Chain first, zone second.
	b.ObserveChain("ns.late.com", []string{"com", "late.com"})
	b.ObserveZone("late.com", []string{"ns.late.com"})
	b.Complete("www.late.com", []string{"com", "late.com"})
	g := b.Finish()

	got := g.HostChainZones("ns.late.com")
	want := []string{"com", "late.com"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HostChainZones(ns.late.com) = %v, want %v", got, want)
	}
	// The chain must feed the dependency closure: www.late.com's TCB
	// includes com's registry server through ns.late.com's chain.
	tcb, err := g.TCB("www.late.com")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range tcb {
		if h == "a.ns.com" {
			found = true
		}
	}
	if !found {
		t.Errorf("TCB %v missing transitive dependency a.ns.com", tcb)
	}
}

// TestBuilderNameAlsoNSHost covers the corner where a surveyed name is
// itself later listed as an NS host of a zone: the name's chain must
// still attach to the host, whether the name completed or failed, even
// though its chain event fired (exactly once) before the zone was
// observed.
func TestBuilderNameAlsoNSHost(t *testing.T) {
	for _, outcome := range []string{"complete", "fail"} {
		t.Run(outcome, func(t *testing.T) {
			b := core.NewBuilder(0)
			b.ObserveZone("com", []string{"a.ns.com"})
			b.ObserveChain("a.ns.com", []string{"com"})
			b.ObserveZone("example.com", []string{"ns1.example.com"})
			b.ObserveChain("ns1.example.com", []string{"com", "example.com"})

			// The surveyed name's chain streams in, then its result —
			// all before any zone lists it as a nameserver.
			b.ObserveChain("dual.example.com", []string{"com", "example.com"})
			if outcome == "complete" {
				b.Complete("dual.example.com", []string{"com", "example.com"})
			} else {
				b.Fail("dual.example.com", errors.New("host walk failed"))
			}

			// Only now does a zone reveal the name as its NS host.
			b.ObserveZone("org", []string{"dual.example.com"})
			b.Complete("www.org-site.org", []string{"org"})
			g := b.Finish()

			want := []string{"com", "example.com"}
			if got := g.HostChainZones("dual.example.com"); !reflect.DeepEqual(got, want) {
				t.Fatalf("HostChainZones(dual.example.com) = %v, want %v", got, want)
			}
			// The attached chain must feed the dependency closure: org's
			// closure (and thus www.org-site.org's TCB) reaches
			// example.com's servers through dual.example.com's chain.
			tcb, err := g.TCB("www.org-site.org")
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, h := range tcb {
				if h == "ns1.example.com" {
					found = true
				}
			}
			if !found {
				t.Errorf("TCB %v missing transitive dependency ns1.example.com", tcb)
			}
		})
	}
}

// TestFinishEpochSnapshotIsolation is the contract the Monitor's View
// rests on: a Graph returned by FinishEpoch must be immutable — later
// events absorbed by the same builder, and later epochs, must not change
// anything the earlier snapshot reports.
func TestFinishEpochSnapshotIsolation(t *testing.T) {
	b := core.NewBuilder(0)
	b.ObserveZone("com", []string{"a.ns.com"})
	b.ObserveChain("a.ns.com", []string{"com"})
	b.ObserveZone("x.com", []string{"ns.x.com"})
	b.ObserveChain("ns.x.com", []string{"com", "x.com"})
	b.Complete("www.x.com", []string{"com", "x.com"})

	g1 := b.FinishEpoch()
	tcb1, err := g1.TCB("www.x.com")
	if err != nil {
		t.Fatal(err)
	}
	want1 := append([]string(nil), tcb1...)
	if g1.NumNames() != 1 || g1.NumZones() != 2 {
		t.Fatalf("epoch 1: %d names, %d zones", g1.NumNames(), g1.NumZones())
	}

	// Epoch 2 adds a zone whose dependencies reach back through x.com and
	// attaches a chain to a pre-epoch host (a.ns.com has one already; use
	// a fresh pending host to exercise the late-attach path).
	b.ObserveZone("late.com", []string{"srv.x.com"})
	b.ObserveChain("srv.x.com", []string{"com", "x.com"})
	b.Complete("www.late.com", []string{"com", "late.com"})
	g2 := b.FinishEpoch()

	// The first snapshot is untouched: same name set, same TCB.
	if g1.NumNames() != 1 {
		t.Errorf("epoch-1 graph gained names: %d", g1.NumNames())
	}
	if _, err := g1.TCB("www.late.com"); err == nil {
		t.Error("epoch-1 graph resolves a name added in epoch 2")
	}
	got1, err := g1.TCB("www.x.com")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1, want1) {
		t.Errorf("epoch-1 TCB changed after later events: %v -> %v", want1, got1)
	}
	if g2.NumNames() != 2 {
		t.Errorf("epoch-2 graph has %d names, want 2", g2.NumNames())
	}
	if _, err := g2.TCB("www.late.com"); err != nil {
		t.Errorf("epoch-2 graph missing new name: %v", err)
	}
}

// TestTakeLateAttached verifies that only chain attachments to hosts
// already published in a finalized epoch are reported — brand-new hosts,
// and attachments before the first epoch, are not "late".
func TestTakeLateAttached(t *testing.T) {
	b := core.NewBuilder(0)
	b.ObserveZone("com", []string{"a.ns.com"})
	b.ObserveChain("a.ns.com", []string{"com"})
	// A zone listing a host whose chain is not yet known: the host is
	// interned chain-less.
	b.ObserveZone("x.com", []string{"ns.elsewhere.net"})
	b.Complete("www.x.com", []string{"com", "x.com"})
	g1 := b.FinishEpoch()
	if late := b.TakeLateAttached(); late != nil {
		t.Fatalf("pre-epoch attachments reported late: %v", late)
	}

	// Epoch 2: the missing chain arrives for the pre-epoch host.
	b.ObserveZone("net", []string{"a.gtld.net"})
	b.ObserveChain("a.gtld.net", []string{"net"})
	b.ObserveChain("ns.elsewhere.net", []string{"net", "elsewhere.net"})
	_ = b.FinishEpoch()
	late := b.TakeLateAttached()
	if len(late) != 1 {
		t.Fatalf("late = %v, want exactly the pre-epoch host", late)
	}
	id, ok := g1.HostID("ns.elsewhere.net")
	if !ok || late[0] != id {
		t.Errorf("late = %v, want [%d] (ns.elsewhere.net)", late, id)
	}
	if b.TakeLateAttached() != nil {
		t.Error("TakeLateAttached must clear the set")
	}
}
