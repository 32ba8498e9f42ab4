package crawler

import (
	"maps"
	"slices"
	"strings"

	"dnstrust/internal/core"
	"dnstrust/internal/resolver"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/vulndb"
)

// BannerSection is the snapshot section holding a fingerprint column:
// one string table aligned with core/hosts — entry i is host i's
// version.bind banner — whose length is the fingerprinted prefix.
// Engines and a fleet's merged file carry it; ReadEngineMeta reads it.
// Vulnerabilities are not stored: they are a pure function of the
// banners and the matrix, so a snapshot restored against an updated
// matrix is rescored.
const BannerSection = "crawler/hostbanner"

// Fingerprints is a survey owner's host fingerprint column, indexed by
// core host id: entry i is host i's version.bind banner and the
// exploits the vulnerability matrix scores it with. It only grows at
// the tail, and every Survey it publishes aliases the prefix it had
// then, so a generation copies nothing; an entry a published Survey can
// see is never written in place. The owner — an Engine, or a fleet
// coordinator in union host ids — serializes every call.
type Fingerprints struct {
	db      *vulndb.DB
	banners []string
	vulns   [][]vulndb.Vuln
	// scored holds one scoring per distinct banner: hosts sharing a
	// banner share its string and its read-only exploit slice.
	scored map[string]scoredBanner
	// shared is the prefix the last published Survey aliases.
	shared int
}

type scoredBanner struct {
	banner string
	vulns  []vulndb.Vuln
}

// NewFingerprints returns an empty column scored against the BIND
// matrix (vulndb.Default).
func NewFingerprints() *Fingerprints {
	return &Fingerprints{db: vulndb.Default(), scored: make(map[string]scoredBanner)}
}

// grow extends the column to cover n hosts; the hosts it adds read as
// banner-hidden.
func (f *Fingerprints) grow(n int) {
	// slices.Grow rather than append(s, make(...)...), which allocates
	// on every call under -race: a restore grows the column one host at
	// a time.
	if old := len(f.banners); n > old {
		f.banners = slices.Grow(f.banners, n-old)[:n]
		f.vulns = slices.Grow(f.vulns, n-old)[:n]
		clear(f.banners[old:])
		clear(f.vulns[old:])
	}
}

// Set records banner for host id, growing the column to cover it. A
// host's first non-empty banner wins, as an engine probes each host
// once: "" is a failed or hidden probe and never overwrites a version
// another probe saw. Set reports whether the host's vulnerability
// changed. It is the one place banners are scored.
func (f *Fingerprints) Set(id int32, banner string) bool {
	f.grow(int(id) + 1)
	if banner == "" || f.banners[id] != "" {
		return false
	}
	if int(id) < f.shared {
		// A published Survey sees this entry: the column is copied, at
		// most once per publication, and the Survey keeps the old one.
		f.banners, f.vulns, f.shared = slices.Clone(f.banners), slices.Clone(f.vulns), 0
	}
	sb, ok := f.scored[banner]
	if !ok {
		sb = scoredBanner{banner: strings.Clone(banner), vulns: f.db.VulnsForBanner(banner)}
		f.scored[sb.banner] = sb
	}
	was := len(f.vulns[id]) > 0
	f.banners[id], f.vulns[id] = sb.banner, sb.vulns
	return was != (len(sb.vulns) > 0)
}

// Publish builds a committed generation: a Survey of graph g, its names
// merged from prev's (core.Graph.NamesFrom; nil lists them afresh),
// aliasing the column's current prefix and holding a copy of failed.
func (f *Fingerprints) Publish(g, prev *core.Graph, failed map[string]error, stats CrawlStats, w *resolver.Walker) *Survey {
	n := len(f.banners)
	f.shared = n
	return &Survey{
		Graph:   g,
		Names:   g.NamesFrom(prev),
		Failed:  maps.Clone(failed),
		Stats:   stats,
		Walker:  w,
		banners: f.banners[:n:n],
		vulns:   f.vulns[:n:n],
	}
}

// WriteSection appends the column to sw as BannerSection.
func (f *Fingerprints) WriteSection(sw *snapshot.Writer) error {
	sw.Begin(BannerSection)
	return snapshot.WriteStringTable(sw, f.banners)
}
