package dnstrust

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler/crawltest"
	"dnstrust/internal/dnsname"
	"dnstrust/internal/fleet"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/topology"
	"dnstrust/internal/view"
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
// Its distributions are CDFs of the per-name values, which carry no
// name order.
func bottlenecksByName(s *Survey, names []string) *analysis.BottleneckStats {
	stats := &analysis.BottleneckStats{}
	var safe, sizes []int
	for _, n := range names {
		res, err := analysis.BottleneckOf(s, n)
		if err != nil {
			continue
		}
		stats.Names++
		safe = append(safe, res.SafeInCut)
		sizes = append(sizes, res.Size)
		if res.SafeInCut == 0 {
			stats.FullyVulnerable++
		}
		if res.SafeInCut == 1 {
			stats.OneSafe++
		}
	}
	stats.SafeCounts, stats.CutSizes = analysis.NewCDF(safe), analysis.NewCDF(sizes)
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
// on a view restored from a snapshot. The monitors leave every third
// generation unasked until the next one has been asked, so folds span
// two commit logs and an older view is asked after a newer one. A
// hand-driven store adds generations that late-attach and rescore
// hosts, and a three-shard fleet adds merged generations, one of which
// rescores a host whose banner was hidden.
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
		var unasked *View
		for i, batch := range batches {
			v, err := m.Add(ctx, batch...)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.Survey().Failed) == 0 {
				t.Fatal("no failed names in the survey: the mixed lists would not exercise them")
			}
			switch i % 3 {
			case 1:
				unasked = v
			case 2:
				checkByName(t, "monitor, two commits since the last ask", v)
				checkByName(t, "monitor, an older view after a newer one", unasked)
			default:
				checkByName(t, "monitor", v)
			}
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

	// Generations of a hand-driven store, committed as a Monitor commits:
	// the memo advanced, then the journal pruned (an unretained timeline).
	st := crawltest.NewStream(5)
	memo := analysis.NewChainMemo()
	prev := st.Next(300)
	checkByName(t, "hand-driven", view.New(prev, memo, nil, view.Merge{}))
	late, rescored := 0, 0
	for i := 0; i < 24; i++ {
		s := st.Next(15)
		if len(s.Stats.LateAttachedHosts) > 0 {
			late++
		}
		if len(s.Stats.RescoredHosts) > 0 {
			rescored++
		}
		memo.Advance(prev, s)
		st.PruneJournal(s.Graph.Epoch())
		if i%3 != 1 {
			checkByName(t, "hand-driven", view.New(s, memo, nil, view.Merge{}))
		}
		prev = s
	}
	if late == 0 || rescored == 0 {
		t.Fatalf("hand-driven generations: %d late-attached hosts, %d rescored one; want some of each", late, rescored)
	}

	checkFleetByName(t)
}

// withBanner returns a copy of ep at generation gen whose banner for
// host is banner (ep itself when the shard never probed host).
func withBanner(ep *fleet.Epoch, gen int64, host, banner string) *fleet.Epoch {
	i := slices.Index(ep.Hosts, host)
	if i < 0 || i >= len(ep.Banners) {
		return ep
	}
	cp := *ep
	cp.Generation = gen
	cp.Banners = slices.Clone(ep.Banners)
	cp.Banners[i] = banner
	return &cp
}

// shardEpoch exports a shard monitor's snapshot and decodes it as a
// fleet epoch.
func shardEpoch(t *testing.T, m *Monitor) *fleet.Epoch {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := fleet.DecodeEpoch(f)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// checkFleetByName holds every merged generation of a three-shard fleet
// to the by-name passes. One host's banner is hidden in every shard's
// epoch until the last round, when one shard shows it: the merge
// rescores the host from "" to a vulnerable version.
func checkFleetByName(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	world, err := topology.Generate(topology.GenParams{Seed: 9, Names: 900})
	if err != nil {
		t.Fatal(err)
	}
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	parts := ring.Assign(world.Corpus)
	mons := make([]*Monitor, len(parts))
	srcs := make([]*fleet.FixedSource, len(parts))
	shards := make([]fleet.Shard, len(parts))
	for i, name := range ring.Shards() {
		m, err := OpenWorld(ctx, world, Options{Workers: 2, ShardName: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if _, err := m.Add(ctx, parts[i][:len(parts[i])/2]...); err != nil {
			t.Fatal(err)
		}
		mons[i], srcs[i] = m, &fleet.FixedSource{Epoch: shardEpoch(t, m)}
		shards[i] = fleet.Shard{Name: name, Source: srcs[i]}
	}

	// The host: shard 0's first probed host whose banner scores
	// vulnerable.
	ep0, s0 := srcs[0].Epoch, mons[0].At().Survey()
	host, banner := "", ""
	for i, b := range ep0.Banners {
		if s0.Vulnerable(ep0.Hosts[i]) {
			host, banner = ep0.Hosts[i], b
			break
		}
	}
	if host == "" {
		t.Fatal("shard s0 probed no vulnerable host; pick another seed")
	}
	hide := func() {
		for _, src := range srcs {
			src.Epoch = withBanner(src.Epoch, src.Epoch.Generation, host, "")
		}
	}
	hide()
	c, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := []func(){
		func() {},
		func() { // every shard surveys the rest of its partition
			for i, m := range mons {
				if _, err := m.Add(ctx, parts[i][len(parts[i])/2:]...); err != nil {
					t.Fatal(err)
				}
				srcs[i].Epoch = shardEpoch(t, m)
			}
			hide()
		},
		func() { // shard 0 shows the host's banner
			ep := srcs[0].Epoch
			srcs[0].Epoch = withBanner(ep, ep.Generation+1, host, banner)
		},
	}
	for i, round := range rounds {
		round()
		fv, err := c.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		last := i == len(rounds)-1
		if got := fv.Survey().Vulnerable(host); got != last {
			t.Fatalf("fleet round %d: Vulnerable(%s) = %v", i, host, got)
		}
		if last && len(fv.Survey().Stats.RescoredHosts) == 0 {
			t.Fatalf("fleet round %d rescored no host", i)
		}
		checkByName(t, "fleet", fv)
	}
}

// TestAnalysisRacesCommit asks Summary and Bottlenecks of two
// generations nobody has asked yet, concurrently, while an Add commits
// a third. Whichever view reaches the memo's aggregates first, the
// other folds or takes the cold pass; every answer must still equal the
// by-name passes, the committing generation's too.
func TestAnalysisRacesCommit(t *testing.T) {
	ctx := context.Background()
	m := openTestMonitor(t, Options{Seed: 9, Names: 1200, Retain: 4})
	corpus := m.World().Corpus
	v, err := m.Add(ctx, corpus[:600]...)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregates exist from here on: later views fold.
	v.Summary()
	if _, err := v.Bottlenecks(ctx); err != nil {
		t.Fatal(err)
	}
	const k = 60
	for lo := 600; lo+3*k <= len(corpus); lo += 3 * k {
		older, err := m.Add(ctx, corpus[lo:lo+k]...)
		if err != nil {
			t.Fatal(err)
		}
		newer, err := m.Add(ctx, corpus[lo+k:lo+2*k]...)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, v := range []*View{older, newer} {
			wg.Add(2)
			go func() {
				defer wg.Done()
				v.Summary()
			}()
			go func() {
				defer wg.Done()
				if _, err := v.Bottlenecks(ctx); err != nil {
					t.Error(err)
				}
			}()
		}
		var next *View
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if next, err = m.Add(ctx, corpus[lo+2*k:lo+3*k]...); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, v := range []*View{older, newer, next} {
			checkByName(t, "racing a commit", v)
		}
	}
}
