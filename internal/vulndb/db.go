package vulndb

import "sort"

// AttackClass categorizes what an exploit yields an attacker. The paper's
// hijack analysis needs compromise-class bugs (code execution or cache
// poisoning divert resolution); DoS-class bugs only silence a server.
type AttackClass int

const (
	// ClassDoS denies service without giving the attacker control.
	ClassDoS AttackClass = iota
	// ClassPoison lets the attacker inject forged records.
	ClassPoison
	// ClassExec yields remote code execution on the nameserver.
	ClassExec
)

func (c AttackClass) String() string {
	switch c {
	case ClassExec:
		return "remote-exec"
	case ClassPoison:
		return "cache-poison"
	default:
		return "denial-of-service"
	}
}

// Range is an inclusive interval of affected BIND versions.
type Range struct {
	Min, Max Version
}

// Contains reports whether v lies inside the range.
func (r Range) Contains(v Version) bool {
	return v.Compare(r.Min) >= 0 && v.Compare(r.Max) <= 0
}

// Vuln is one entry of the BIND vulnerability matrix.
type Vuln struct {
	// Name is the ISC matrix short name ("libbind", "negcache", ...).
	Name string
	// CVE is the assigned identifier where one exists.
	CVE string
	// Year the advisory was published.
	Year int
	// Class is what exploitation yields.
	Class AttackClass
	// Affected lists the version ranges subject to the bug.
	Affected []Range
	// Summary is a one-line description.
	Summary string
}

// Matches reports whether the vulnerability affects version v.
func (vu Vuln) Matches(v Version) bool {
	for _, r := range vu.Affected {
		if r.Contains(v) {
			return true
		}
	}
	return false
}

// DB is a queryable vulnerability matrix.
type DB struct {
	vulns []Vuln
}

// New builds a DB from an explicit set of entries (used by tests and
// what-if analyses); Default returns the historical matrix.
func New(vulns []Vuln) *DB {
	cp := make([]Vuln, len(vulns))
	copy(cp, vulns)
	return &DB{vulns: cp}
}

// Default returns the ISC BIND vulnerability matrix as of February 2004,
// the snapshot the paper consulted. Ranges reproduce the matrix closely
// enough that the paper's running example holds: BIND 8.2.4 matches
// exactly {libbind, negcache, sigrec, DoS multi}.
func Default() *DB {
	return New(historicalMatrix)
}

// All returns the entries in deterministic (name) order.
func (db *DB) All() []Vuln {
	out := make([]Vuln, len(db.vulns))
	copy(out, db.vulns)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports the number of entries.
func (db *DB) Len() int { return len(db.vulns) }

// VulnsFor returns every matrix entry affecting version v, in name order.
func (db *DB) VulnsFor(v Version) []Vuln {
	var out []Vuln
	for _, vu := range db.vulns {
		if vu.Matches(v) {
			out = append(out, vu)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// VulnsForBanner parses a version.bind banner and returns its matrix
// matches. Unparseable banners yield nil (optimistically safe).
func (db *DB) VulnsForBanner(banner string) []Vuln {
	v, ok := ParseBanner(banner)
	if !ok {
		return nil
	}
	return db.VulnsFor(v)
}

// Compromisable reports whether vs holds an exploit that yields control
// of resolution (code execution or poisoning), as opposed to DoS.
func Compromisable(vs []Vuln) bool {
	for _, vu := range vs {
		if vu.Class == ClassExec || vu.Class == ClassPoison {
			return true
		}
	}
	return false
}

// historicalMatrix is the Feb-2004 ISC "BIND Vulnerabilities" page
// rendered as ranges. Version bounds follow the advisories: a bug "fixed
// in 8.2.7 and 8.3.4" affects 8.x through 8.2.6 and 8.3.0-8.3.3.
var historicalMatrix = []Vuln{
	{
		Name: "libbind", CVE: "CVE-2002-0029", Year: 2002, Class: ClassExec,
		Summary: "buffer overflow in libbind/resolver DNS stub handling",
		Affected: []Range{
			{V(4, 9, 2), VP(4, 9, 10, 999)},
			{V(8, 1, 0), VP(8, 2, 6, 999)},
			{V(8, 3, 0), VP(8, 3, 3, 999)},
		},
	},
	{
		Name: "negcache", CVE: "CVE-2003-0914", Year: 2003, Class: ClassPoison,
		Summary: "negative cache poisoning permits denial and misdirection",
		Affected: []Range{
			{V(8, 2, 0), VP(8, 2, 6, 999)},
			{V(8, 3, 0), VP(8, 3, 3, 999)},
		},
	},
	{
		Name: "sigrec", CVE: "CVE-2002-1219", Year: 2002, Class: ClassExec,
		Summary: "buffer overflow processing cached SIG records",
		Affected: []Range{
			{V(8, 1, 0), VP(8, 2, 6, 999)},
			{V(8, 3, 0), VP(8, 3, 3, 999)},
		},
	},
	{
		Name: "DoS multi", CVE: "CVE-2002-1220", Year: 2002, Class: ClassDoS,
		Summary: "multiple denial-of-service paths via malformed responses",
		Affected: []Range{
			{V(8, 1, 0), VP(8, 2, 6, 999)},
			{V(8, 3, 0), VP(8, 3, 3, 999)},
		},
	},
	{
		Name: "tsig", CVE: "CVE-2001-0010", Year: 2001, Class: ClassExec,
		Summary: "transaction signature handling buffer overflow",
		Affected: []Range{
			{V(8, 2, 0), VP(8, 2, 3, 999)},
		},
	},
	{
		Name: "nxt", CVE: "CVE-1999-0833", Year: 1999, Class: ClassExec,
		Summary: "NXT record processing buffer overflow",
		Affected: []Range{
			{V(8, 2, 0), VP(8, 2, 1, 999)},
		},
	},
	{
		Name: "zxfr", CVE: "CVE-2000-0887", Year: 2000, Class: ClassDoS,
		Summary: "compressed zone transfer request crashes named",
		Affected: []Range{
			{V(8, 2, 2), VP(8, 2, 2, 6)},
		},
	},
	{
		Name: "srv", CVE: "CVE-2000-0888", Year: 2000, Class: ClassDoS,
		Summary: "SRV record DoS against BIND 8.2.2 patch levels",
		Affected: []Range{
			{V(8, 2, 2), VP(8, 2, 2, 6)},
		},
	},
	{
		Name: "infoleak", CVE: "CVE-2001-0012", Year: 2001, Class: ClassPoison,
		Summary: "inverse-query information leak exposes memory",
		Affected: []Range{
			{V(4, 9, 3), VP(4, 9, 5, 999)},
			{V(8, 2, 0), VP(8, 2, 3, 999)},
		},
	},
	{
		Name: "sigdiv0", CVE: "CVE-2001-0011", Year: 2001, Class: ClassDoS,
		Summary: "division by zero handling SIG records",
		Affected: []Range{
			{V(4, 9, 5), VP(4, 9, 5, 999)},
		},
	},
	{
		Name: "maxdname", CVE: "CVE-1999-0835", Year: 1999, Class: ClassExec,
		Summary: "maxdname buffer overflow in name expansion",
		Affected: []Range{
			{V(4, 9, 0), VP(4, 9, 6, 999)},
			{V(8, 0, 0), VP(8, 2, 1, 999)},
		},
	},
	{
		Name: "naptr", CVE: "CVE-1999-0837", Year: 1999, Class: ClassDoS,
		Summary: "malformed NAPTR zone data crashes named",
		Affected: []Range{
			{V(4, 9, 5), VP(4, 9, 7, 999)},
			{V(8, 2, 0), VP(8, 2, 2, 999)},
		},
	},
	{
		Name: "solinger", CVE: "CVE-1999-0838", Year: 1999, Class: ClassDoS,
		Summary: "SO_LINGER abuse wedges the TCP listener",
		Affected: []Range{
			{V(8, 1, 0), VP(8, 2, 2, 999)},
		},
	},
	{
		Name: "fdmax", CVE: "CVE-1999-0836", Year: 1999, Class: ClassDoS,
		Summary: "file descriptor exhaustion crashes named",
		Affected: []Range{
			{V(8, 1, 0), VP(8, 2, 2, 999)},
		},
	},
	{
		Name: "bind9 rdataset", CVE: "CVE-2002-0400", Year: 2002, Class: ClassDoS,
		Summary: "assertion failure on malformed rdataset shuts down named",
		Affected: []Range{
			{V(9, 0, 0), VP(9, 2, 0, 999)},
		},
	},
	{
		Name: "bind9 negcache", CVE: "CVE-2003-0690", Year: 2003, Class: ClassDoS,
		Summary: "cached negative response assertion failure",
		Affected: []Range{
			{V(9, 2, 1), V(9, 2, 1)},
		},
	},
	{
		Name: "bind4 q_usedns", CVE: "CVE-1999-0009", Year: 1998, Class: ClassExec,
		Summary: "inverse query buffer overflow (the original BIND worm hole)",
		Affected: []Range{
			{V(4, 9, 0), VP(4, 9, 1, 999)},
		},
	},
}
