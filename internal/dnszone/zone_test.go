package dnszone

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"dnstrust/internal/dnswire"
)

func addr(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// cornellZone builds a zone resembling cornell.edu from Figure 1.
func cornellZone(t testing.TB) *Zone {
	t.Helper()
	z := New("cornell.edu")
	z.AddNS("cudns.cit.cornell.edu")
	z.AddNS("bigred.cit.cornell.edu")
	z.AddNS("dns.cit.cornell.edu")
	if err := z.AddAddress("cudns.cit.cornell.edu", addr(t, "192.35.82.50")); err != nil {
		t.Fatal(err)
	}
	if err := z.AddAddress("www.cornell.edu", addr(t, "132.236.56.9")); err != nil {
		t.Fatal(err)
	}
	if err := z.Delegate("cs.cornell.edu",
		"penguin.cs.cornell.edu", "sunup.cs.cornell.edu", "dns.cs.wisc.edu"); err != nil {
		t.Fatal(err)
	}
	if err := z.AddGlue("penguin.cs.cornell.edu", addr(t, "128.84.96.10")); err != nil {
		t.Fatal(err)
	}
	if err := z.AddGlue("sunup.cs.cornell.edu", addr(t, "128.84.96.11")); err != nil {
		t.Fatal(err)
	}
	return z
}

func TestLookupAnswer(t *testing.T) {
	z := cornellZone(t)
	res := z.Lookup("www.cornell.edu", dnswire.TypeA)
	if res.Kind != KindAnswer || len(res.Answer) != 1 {
		t.Fatalf("got %v with %d answers", res.Kind, len(res.Answer))
	}
	if got := res.Answer[0].Data.(dnswire.A).Addr.String(); got != "132.236.56.9" {
		t.Errorf("answer = %s", got)
	}
}

func TestLookupApexNS(t *testing.T) {
	z := cornellZone(t)
	res := z.Lookup("cornell.edu", dnswire.TypeNS)
	if res.Kind != KindAnswer || len(res.Answer) != 3 {
		t.Fatalf("apex NS: got %v with %d answers", res.Kind, len(res.Answer))
	}
}

func TestLookupDelegation(t *testing.T) {
	z := cornellZone(t)
	for _, q := range []string{"cs.cornell.edu", "www.cs.cornell.edu", "deep.www.cs.cornell.edu"} {
		res := z.Lookup(q, dnswire.TypeA)
		if res.Kind != KindDelegation {
			t.Fatalf("Lookup(%q) = %v, want delegation", q, res.Kind)
		}
		if len(res.Authority) != 3 {
			t.Errorf("referral carries %d NS records, want 3", len(res.Authority))
		}
		// Glue must cover the two in-zone servers but not dns.cs.wisc.edu.
		if len(res.Additional) != 2 {
			t.Errorf("referral carries %d glue records, want 2", len(res.Additional))
		}
		for _, g := range res.Additional {
			if g.Name == "dns.cs.wisc.edu" {
				t.Error("out-of-zone server must not get glue")
			}
		}
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := cornellZone(t)
	res := z.Lookup("nonexistent.cornell.edu", dnswire.TypeA)
	if res.Kind != KindNXDomain {
		t.Fatalf("got %v, want NXDOMAIN", res.Kind)
	}
	if len(res.Authority) != 1 || res.Authority[0].Type() != dnswire.TypeSOA {
		t.Error("negative answer must carry the SOA")
	}
}

func TestLookupNoData(t *testing.T) {
	z := cornellZone(t)
	res := z.Lookup("www.cornell.edu", dnswire.TypeMX)
	if res.Kind != KindNoData {
		t.Fatalf("got %v, want NODATA", res.Kind)
	}
}

func TestLookupEmptyNonTerminal(t *testing.T) {
	z := cornellZone(t)
	// cit.cornell.edu has no records itself but cudns.cit.cornell.edu does.
	res := z.Lookup("cit.cornell.edu", dnswire.TypeA)
	if res.Kind != KindNoData {
		t.Fatalf("empty non-terminal: got %v, want NODATA", res.Kind)
	}
}

func TestLookupNotInZone(t *testing.T) {
	z := cornellZone(t)
	if res := z.Lookup("www.rochester.edu", dnswire.TypeA); res.Kind != KindNotInZone {
		t.Fatalf("got %v, want not-in-zone", res.Kind)
	}
}

func TestLookupCNAME(t *testing.T) {
	z := cornellZone(t)
	z.MustAddRR(dnswire.RR{
		Name: "web.cornell.edu", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.CNAME{Target: "www.cornell.edu"},
	})
	res := z.Lookup("web.cornell.edu", dnswire.TypeA)
	if res.Kind != KindAnswer || len(res.Answer) != 1 {
		t.Fatalf("CNAME lookup: %v/%d", res.Kind, len(res.Answer))
	}
	if _, ok := res.Answer[0].Data.(dnswire.CNAME); !ok {
		t.Error("want the CNAME itself for an A query")
	}
	// Direct CNAME query returns it too.
	res = z.Lookup("web.cornell.edu", dnswire.TypeCNAME)
	if res.Kind != KindAnswer {
		t.Errorf("explicit CNAME query: %v", res.Kind)
	}
}

func TestLookupANY(t *testing.T) {
	z := cornellZone(t)
	res := z.Lookup("cornell.edu", dnswire.TypeANY)
	if res.Kind != KindAnswer || len(res.Answer) != 3 {
		t.Fatalf("ANY at apex: %v/%d answers", res.Kind, len(res.Answer))
	}
}

func TestAddRRValidation(t *testing.T) {
	z := cornellZone(t)
	err := z.AddRR(dnswire.RR{Name: "www.rochester.edu", Class: dnswire.ClassINET,
		Data: dnswire.A{Addr: addr(t, "10.0.0.1")}})
	if err == nil {
		t.Error("out-of-zone record must be rejected")
	}
	err = z.AddRR(dnswire.RR{Name: "inside.cs.cornell.edu", Class: dnswire.ClassINET,
		Data: dnswire.A{Addr: addr(t, "10.0.0.1")}})
	if err == nil {
		t.Error("record beneath a cut must be rejected")
	}
	if err := z.AddRR(dnswire.RR{Name: "x.cornell.edu"}); err == nil {
		t.Error("record without data must be rejected")
	}
}

func TestDelegateValidation(t *testing.T) {
	z := New("cornell.edu")
	if err := z.Delegate("cornell.edu", "ns.example.com"); err == nil {
		t.Error("cannot delegate the apex")
	}
	if err := z.Delegate("www.rochester.edu", "ns.example.com"); err == nil {
		t.Error("cannot delegate a name outside the zone")
	}
	if err := z.Delegate("cs.cornell.edu"); err == nil {
		t.Error("delegation needs nameservers")
	}
}

func TestAddGlueValidation(t *testing.T) {
	z := cornellZone(t)
	if err := z.AddGlue("www.cornell.edu", addr(t, "10.0.0.1")); err == nil {
		t.Error("glue outside any cut must be rejected")
	}
}

func TestNSHostsAndCuts(t *testing.T) {
	z := cornellZone(t)
	want := []string{"bigred.cit.cornell.edu", "cudns.cit.cornell.edu", "dns.cit.cornell.edu"}
	if got := z.NSHosts(); !reflect.DeepEqual(got, want) {
		t.Errorf("NSHosts = %v", got)
	}
	if got := z.Cuts(); !reflect.DeepEqual(got, []string{"cs.cornell.edu"}) {
		t.Errorf("Cuts = %v", got)
	}
}

func TestRootZone(t *testing.T) {
	z := New("")
	z.AddNS("a.root-servers.net")
	if err := z.Delegate("edu", "a.edu-servers.net"); err != nil {
		t.Fatal(err)
	}
	// The edu servers live under net, so glue for them requires net to be
	// delegated as well — exactly as in the real root zone.
	if err := z.Delegate("net", "a.gtld-servers.net"); err != nil {
		t.Fatal(err)
	}
	if err := z.AddGlue("a.edu-servers.net", addr(t, "192.5.6.30")); err != nil {
		t.Fatal(err)
	}
	res := z.Lookup("www.cs.cornell.edu", dnswire.TypeA)
	if res.Kind != KindDelegation {
		t.Fatalf("root lookup for edu name: %v, want delegation", res.Kind)
	}
	res = z.Lookup("", dnswire.TypeNS)
	if res.Kind != KindAnswer {
		t.Fatalf("root apex NS: %v", res.Kind)
	}
}

func TestZoneString(t *testing.T) {
	z := cornellZone(t)
	s := z.String()
	if !strings.Contains(s, "cornell.edu.") {
		t.Errorf("String() = %q", s)
	}
}
