package dnsname

import (
	"strings"
	"testing"
)

func TestKindOf(t *testing.T) {
	cases := []struct {
		name string
		want Kind
	}{
		{"cornell.edu", KindGeneric},
		{"example.com", KindGeneric},
		{"www.rkc.lviv.ua", KindCountry},
		{"monash.edu.au", KindCountry},
		{"in-addr.arpa", KindInfra},
		{"example.invalidtld", KindUnknown},
		{"", KindUnknown},
	}
	for _, c := range cases {
		if got := KindOf(c.name); got != c.want {
			t.Errorf("KindOf(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindGeneric: "gTLD", KindCountry: "ccTLD", KindInfra: "infra", KindUnknown: "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestIsTLD(t *testing.T) {
	for name, want := range map[string]bool{
		"com": true, "ua": true, "arpa": true,
		"cornell.edu": false, "": false, "notatld": false,
	} {
		if got := IsTLD(name); got != want {
			t.Errorf("IsTLD(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTLDTableConsistency(t *testing.T) {
	seen := map[string]bool{}
	for _, tld := range append(append([]string{}, GenericTLDs...), CountryTLDs...) {
		if seen[tld] {
			t.Errorf("TLD %q appears twice", tld)
		}
		seen[tld] = true
		if err := Check(tld); err != nil {
			t.Errorf("TLD %q fails Check: %v", tld, err)
		}
	}
	// The paper's corpus spanned 196 distinct TLDs; our tables must offer
	// at least that many to draw from.
	if total := len(GenericTLDs) + len(CountryTLDs); total < 196 {
		t.Errorf("TLD tables list %d TLDs, need >= 196", total)
	}
}

func TestEffectiveTLD(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"com", "com"},
		{"example.com", "com"},
		{"bbc.co.uk", "co.uk"},
		{"www.bbc.co.uk", "co.uk"},
		{"rkc.lviv.ua", "lviv.ua"},
		{"www.rkc.lviv.ua", "lviv.ua"},
		{"monash.edu.au", "edu.au"},
		{"plain.ua", "ua"},
		{"co.uk", "co.uk"},
	}
	for _, c := range cases {
		if got := EffectiveTLD(c.in); got != c.want {
			t.Errorf("EffectiveTLD(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRegisteredDomain(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{"www.cs.cornell.edu", "cornell.edu", false},
		{"cornell.edu", "cornell.edu", false},
		{"www.rkc.lviv.ua", "rkc.lviv.ua", false},
		{"www.bbc.co.uk", "bbc.co.uk", false},
		{"a.gtld-servers.net", "gtld-servers.net", false},
		{"edu", "", true},
		{"co.uk", "", true},
		{"lviv.ua", "", true},
		{"", "", true},
	}
	for _, c := range cases {
		got, err := RegisteredDomain(c.in)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("RegisteredDomain(%q) = %q,%v want %q,err=%v", c.in, got, err, c.want, c.wantErr)
		}
	}
}

func TestSameBailiwick(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"www.cs.cornell.edu", "cudns.cit.cornell.edu", true},
		{"www.cs.cornell.edu", "cayuga.cs.rochester.edu", false},
		{"dns.sprintip.com", "www.fbi.gov", false},
		{"edu", "edu", false}, // TLDs have no bailiwick
		{"", "", false},
	}
	for _, c := range cases {
		if got := SameBailiwick(c.a, c.b); got != c.want {
			t.Errorf("SameBailiwick(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRegisteredDomainIsSubdomainOfEffectiveTLD(t *testing.T) {
	names := []string{
		"www.cs.cornell.edu", "www.rkc.lviv.ua", "a.b.c.d.example.com",
		"x.bbc.co.uk", "deep.sub.domain.monash.edu.au",
	}
	for _, n := range names {
		rd, err := RegisteredDomain(n)
		if err != nil {
			t.Fatalf("RegisteredDomain(%q): %v", n, err)
		}
		etld := EffectiveTLD(n)
		if !IsSubdomain(rd, etld) {
			t.Errorf("registered domain %q not under effective TLD %q", rd, etld)
		}
		if CountLabels(rd) != CountLabels(etld)+1 {
			t.Errorf("registered domain %q should be exactly one label under %q", rd, etld)
		}
		if !IsSubdomain(n, rd) {
			t.Errorf("name %q not under its registered domain %q", n, rd)
		}
	}
}

// effectiveTLDByLabels and registeredDomainByLabels are the
// label-splitting definitions EffectiveTLD and RegisteredDomain must
// reproduce for every input.
func effectiveTLDByLabels(name string) string {
	if name == "" {
		return ""
	}
	labels := Labels(name)
	tld := labels[len(labels)-1]
	if len(labels) >= 2 {
		if sl, ok := ccSecondLevel[tld]; ok && sl[labels[len(labels)-2]] {
			return labels[len(labels)-2] + "." + tld
		}
	}
	return tld
}

func registeredDomainByLabels(name string) (string, error) {
	if name == "" {
		return "", ErrNoRegisteredD
	}
	etld := effectiveTLDByLabels(name)
	if name == etld {
		return "", ErrNoRegisteredD
	}
	labels := Labels(name)
	suffixLabels := CountLabels(etld)
	if len(labels) <= suffixLabels {
		return "", ErrNoRegisteredD
	}
	return strings.Join(labels[len(labels)-suffixLabels-1:], "."), nil
}

func FuzzRegisteredDomain(f *testing.F) {
	for _, seed := range []string{
		"", ".", "..", "com", "co.uk", "x.co.uk", ".uk", "a..uk", "uk.",
		"foo.", "www.rkc.lviv.ua", "www.cs.cornell.edu", "a.b.c.d.example.com",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if got, want := EffectiveTLD(name), effectiveTLDByLabels(name); got != want {
			t.Fatalf("EffectiveTLD(%q) = %q, want %q", name, got, want)
		}
		got, err := RegisteredDomain(name)
		want, wantErr := registeredDomainByLabels(name)
		if got != want || err != wantErr {
			t.Fatalf("RegisteredDomain(%q) = %q, %v; want %q, %v", name, got, err, want, wantErr)
		}
	})
}
