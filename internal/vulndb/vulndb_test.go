package vulndb

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseBanner(t *testing.T) {
	cases := []struct {
		banner string
		want   Version
		ok     bool
	}{
		{"BIND 8.2.4", V(8, 2, 4), true},
		{"8.2.4", V(8, 2, 4), true},
		{"named 8.3.1", V(8, 3, 1), true},
		{"BIND 8.2.2-P5", VP(8, 2, 2, 5), true},
		{"bind 8.2.2-p7", VP(8, 2, 2, 7), true},
		{"BIND 4.9.6-REL", V(4, 9, 6), true},
		{"9.2.0", V(9, 2, 0), true},
		{"BIND 9.2.3rc2", Version{Major: 9, Minor: 2, Patch: 3, Pre: true}, true},
		{"BIND 9.2", V(9, 2, 0), true},
		{"BIND 8.2.4 (Red Hat)", V(8, 2, 4), true},
		{"", Version{}, false},
		{"refused", Version{}, false},
		{"surely you must be joking", Version{}, false},
		{"dnsmasq-2.4", Version{}, false},
		{"Microsoft DNS 5.0.49664", Version{}, false}, // major 5 is not BIND
		{"BIND x.y.z", Version{}, false},
	}
	for _, c := range cases {
		got, ok := ParseBanner(c.banner)
		if ok != c.ok {
			t.Errorf("ParseBanner(%q) ok = %v, want %v", c.banner, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		got.Raw = ""
		if got != c.want {
			t.Errorf("ParseBanner(%q) = %+v, want %+v", c.banner, got, c.want)
		}
	}
}

func TestVersionCompare(t *testing.T) {
	ordered := []Version{
		V(4, 9, 1),
		V(4, 9, 11),
		V(8, 2, 2),
		VP(8, 2, 2, 1),
		VP(8, 2, 2, 7),
		{Major: 8, Minor: 2, Patch: 3, Pre: true},
		V(8, 2, 3),
		V(8, 2, 4),
		V(9, 2, 0),
		V(9, 2, 1),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	gen := func(r *rand.Rand) Version {
		v := Version{
			Major: []int{4, 8, 9}[r.Intn(3)],
			Minor: r.Intn(10), Patch: r.Intn(12),
		}
		if r.Intn(3) == 0 {
			v.PatchLevel = 1 + r.Intn(7)
		}
		if r.Intn(5) == 0 {
			v.Pre = true
		}
		return v
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		return a.Compare(b) == -b.Compare(a) && a.Compare(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPaperFBIExample pins the paper's §3.2 running example: BIND 8.2.4
// (reston-ns2.telemail.net) has exactly the four named exploits.
func TestPaperFBIExample(t *testing.T) {
	db := Default()
	vulns := db.VulnsForBanner("BIND 8.2.4")
	var names []string
	for _, v := range vulns {
		names = append(names, v.Name)
	}
	want := []string{"DoS multi", "libbind", "negcache", "sigrec"}
	sort.Strings(names)
	if len(names) != len(want) {
		t.Fatalf("BIND 8.2.4 matches %v, want exactly %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BIND 8.2.4 matches %v, want %v", names, want)
		}
	}
}

func TestKnownSafeVersions(t *testing.T) {
	db := Default()
	for _, banner := range []string{
		"BIND 8.2.7", "BIND 8.3.4", "BIND 8.4.4",
		"BIND 9.2.2", "BIND 9.2.3", "BIND 9.3.0",
		"BIND 4.9.11",
	} {
		if len(db.VulnsForBanner(banner)) > 0 {
			t.Errorf("%s should be safe in the Feb-2004 matrix, matched %v",
				banner, db.VulnsForBanner(banner))
		}
	}
}

func TestKnownVulnerableVersions(t *testing.T) {
	db := Default()
	cases := map[string]string{
		"BIND 8.2.2-P5": "zxfr",
		"BIND 8.2.3":    "tsig",
		"BIND 8.2.1":    "nxt",
		"BIND 4.9.5":    "sigdiv0",
		"BIND 9.2.0":    "bind9 rdataset",
		"BIND 9.2.1":    "bind9 negcache",
		"BIND 4.9.0":    "bind4 q_usedns",
	}
	for banner, wantVuln := range cases {
		vulns := db.VulnsForBanner(banner)
		found := false
		for _, v := range vulns {
			if v.Name == wantVuln {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want %q among matches, got %v", banner, wantVuln, vulns)
		}
	}
}

func TestHiddenBannersAreSafe(t *testing.T) {
	db := Default()
	for _, banner := range []string{"", "refused", "none of your business", "9 to 5"} {
		if len(db.VulnsForBanner(banner)) > 0 {
			t.Errorf("hidden banner %q must be optimistically safe", banner)
		}
	}
}

func TestCompromisable(t *testing.T) {
	db := Default()
	cases := map[string]bool{
		"BIND 8.2.4":    true,  // libbind/sigrec are exec-class
		"BIND 9.2.0":    false, // only the rdataset DoS
		"BIND 9.2.1":    false, // only the negcache DoS
		"BIND 8.2.7":    false, // safe
		"hidden banner": false,
	}
	for banner, want := range cases {
		if got := Compromisable(db.VulnsForBanner(banner)); got != want {
			t.Errorf("Compromisable(%q) = %v, want %v", banner, got, want)
		}
	}
}

func TestAttackClassString(t *testing.T) {
	for c, want := range map[AttackClass]string{
		ClassExec: "remote-exec", ClassPoison: "cache-poison", ClassDoS: "denial-of-service",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestDBAllSortedAndImmutable(t *testing.T) {
	db := Default()
	all := db.All()
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Name < all[j].Name }) {
		t.Error("All() not sorted by name")
	}
	if db.Len() < 15 {
		t.Errorf("matrix has %d entries, expected the full historical set", db.Len())
	}
	all[0].Name = "mutated"
	if db.All()[0].Name == "mutated" {
		t.Error("All() must return a copy")
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{V(8, 2, 0), VP(8, 2, 6, 999)}
	for v, want := range map[Version]bool{
		V(8, 2, 0):     true,
		V(8, 2, 6):     true,
		VP(8, 2, 6, 7): true,
		V(8, 2, 7):     false,
		V(8, 1, 9):     false,
		V(9, 2, 0):     false,
	} {
		if got := r.Contains(v); got != want {
			t.Errorf("Contains(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestVersionString(t *testing.T) {
	if got := V(8, 2, 4).String(); got != "8.2.4" {
		t.Errorf("String() = %q", got)
	}
	if got := VP(8, 2, 2, 5).String(); got != "8.2.2-P5" {
		t.Errorf("String() = %q", got)
	}
	v, _ := ParseBanner("BIND 8.2.4 (custom)")
	if v.String() != "8.2.4" {
		t.Errorf("parsed String() = %q, want raw substring", v.String())
	}
}
