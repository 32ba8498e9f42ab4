package dnstrust

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dnstrust/internal/analysis"
	"dnstrust/internal/dnsname"
)

// summarizeByName is the Summary pass as it ran before the analysis
// moved onto interned ids, kept as the reference: every name resolves
// through the store's maps, every TCB member's vulnerability is asked of
// the survey by host name, and owned servers are counted by comparing
// registered-domain strings. No memo is involved. Sums are integers, so
// the means are exactly those of any other order of summation.
func summarizeByName(s *Survey, names []string) *analysis.Summary {
	g := s.Graph
	var sizes, vulns []int
	affected, counted, ownedSum, directSum := 0, 0, 0, 0
	for _, n := range names {
		tcb, err := g.TCBIDs(n)
		if err != nil {
			continue
		}
		vuln := 0
		for _, id := range tcb {
			if s.Vulnerable(g.Host(id)) {
				vuln++
			}
		}
		sizes = append(sizes, len(tcb))
		vulns = append(vulns, vuln)
		if vuln > 0 {
			affected++
		}
		cid, _ := g.NameChainID(n)
		chain := g.ChainZoneIDs(cid)
		if len(chain) == 0 {
			continue
		}
		directSum += len(g.ZoneNSIDs(chain[len(chain)-1]))
		if rd, err := dnsname.RegisteredDomain(n); err == nil {
			for _, id := range tcb {
				if hrd, err := dnsname.RegisteredDomain(g.Host(id)); err == nil && hrd == rd {
					ownedSum++
				}
			}
		}
		counted++
	}
	ownedMean, directMean := 0.0, 0.0
	if counted > 0 {
		ownedMean = float64(ownedSum) / float64(counted)
		directMean = float64(directSum) / float64(counted)
	}
	return &analysis.Summary{
		Names:             len(sizes),
		Servers:           g.NumHosts(),
		VulnerableServers: s.VulnerableHosts(),
		AffectedNames:     affected,
		TCB:               analysis.NewCDF(sizes),
		VulnPerTCB:        analysis.NewCDF(vulns),
		DirectMean:        directMean,
		OwnedMean:         ownedMean,
	}
}

// bottlenecksByName is the Figure 7 pass one name at a time, with no
// memo and no grouping by chain: the reference for the id-based pass.
func bottlenecksByName(s *Survey, names []string) *analysis.BottleneckStats {
	stats := &analysis.BottleneckStats{}
	for _, n := range names {
		res, err := analysis.BottleneckOf(s, n)
		if err != nil {
			continue
		}
		stats.Names++
		stats.SafeCounts = append(stats.SafeCounts, res.SafeInCut)
		stats.CutSizes = append(stats.CutSizes, res.Size)
		if res.SafeInCut == 0 {
			stats.FullyVulnerable++
		}
		if res.SafeInCut == 1 {
			stats.OneSafe++
		}
	}
	return stats
}

// checkByName asserts that a view's Summary and Bottlenecks — memo
// served, over its own name list — and the id-based passes over the
// popular names and over a list with unknown, failed and non-canonical
// names all equal the by-name reference.
func checkByName(t *testing.T, how string, v *View) {
	t.Helper()
	ctx := context.Background()
	s := v.Survey()
	if got, want := v.Summary(), summarizeByName(s, s.Names); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, generation %d: Summary %+v, by name %+v", how, v.Generation(), got, want)
	}
	got, err := v.Bottlenecks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := bottlenecksByName(s, s.Names); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, generation %d: Bottlenecks differ from the by-name pass", how, v.Generation())
	}

	mixed := []string{"no.such.name.example", ""}
	for n := range s.Failed {
		mixed = append(mixed, n)
	}
	sort.Strings(mixed)
	if len(s.Names) > 0 {
		mixed = append(mixed, s.Names[len(s.Names)/2:]...)
		mixed = append(mixed, strings.ToUpper(s.Names[0]), s.Names[0]+".")
	}
	for _, list := range [][]string{v.Popular(), mixed} {
		if got, want := analysis.SummarizeMemo(s, list, v.Memo()), summarizeByName(s, list); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, generation %d: Summary of a %d-name list %+v, by name %+v", how, v.Generation(), len(list), got, want)
		}
		got, err := analysis.BottlenecksMemo(ctx, s, list, 2, v.Memo())
		if err != nil {
			t.Fatal(err)
		}
		if want := bottlenecksByName(s, list); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, generation %d: Bottlenecks of a %d-name list differ from the by-name pass", how, v.Generation(), len(list))
		}
	}
}

// TestSummaryMatchesByName holds the id-based Summary and Bottlenecks to
// the by-name reference at every generation of seeded monitors, with and
// without retention (which decides whether a commit's name list and
// chain-id column merge from the journal or are collected afresh), and
// on a view restored from a snapshot.
func TestSummaryMatchesByName(t *testing.T) {
	ctx := context.Background()
	for _, retain := range []int{0, 4} {
		path := filepath.Join(t.TempDir(), "session.snap")
		m := openTestMonitor(t, Options{Seed: 9, Names: 1200, Retain: retain, SnapshotFile: path})
		corpus := m.World().Corpus
		checkByName(t, "generation 0", m.At())
		// Names the world does not hold fail their walks and land in
		// Survey.Failed, so the mixed lists carry failed names.
		batches := [][]string{append(corpus[:700:700], "www.no-such-site.com", "ns.no-such-tld-zz")}
		for lo := 700; lo+80 <= len(corpus); lo += 80 {
			// Each batch re-adds a few surveyed names beside new ones.
			batches = append(batches, append(corpus[lo:lo+80:lo+80], corpus[lo-90:lo-80]...))
		}
		for _, batch := range batches {
			v, err := m.Add(ctx, batch...)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.Survey().Failed) == 0 {
				t.Fatal("no failed names in the survey: the mixed lists would not exercise them")
			}
			checkByName(t, "monitor", v)
		}
		want := m.At().Summary()
		if _, err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
		m2 := openTestMonitor(t, Options{Seed: 9, Names: 1200, Retain: retain, SnapshotFile: path})
		if !reflect.DeepEqual(m2.At().Summary(), want) {
			t.Fatalf("retain %d: restored Summary differs from the saved view's", retain)
		}
		checkByName(t, "restored", m2.At())
	}
}
