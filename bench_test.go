// Benchmarks regenerating every table and figure of the paper, plus the
// ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benches measure the analysis that produces each figure's series
// over a shared survey (world generation and crawling are amortized into
// one-time setup); the Survey* benches measure the crawl itself.
package dnstrust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnstrust/internal/analysis"
	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/delta"
	"dnstrust/internal/dnsclient"
	"dnstrust/internal/dnsserver"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/fleet"
	"dnstrust/internal/mincut"
	"dnstrust/internal/proxy"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

// benchScale is the default corpus size for benchmark studies. Override
// the full paper scale by running cmd/dnssurvey -names 593160.
const benchScale = 6000

var (
	benchOnce  sync.Once
	benchStudy *Monitor
	benchErr   error
)

func sharedBenchStudy(b *testing.B) *View {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = surveyCorpus(Options{Seed: 1, Names: benchScale})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy.At()
}

func benchExperiment(b *testing.B, id string) {
	s := sharedBenchStudy(b)
	var exp Experiment
	for _, e := range Experiments() {
		if e.ID == id {
			exp = e
		}
	}
	if exp.Run == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Run(context.Background(), s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rows {
			if !c.Holds {
				b.Fatalf("%s / %s does not hold: %s vs %s", c.Experiment, c.Quantity, c.Paper, c.Measured)
			}
		}
	}
}

func BenchmarkFigure1DelegationGraph(b *testing.B) { benchExperiment(b, "Figure 1") }
func BenchmarkFigure2TCBSizeCDF(b *testing.B)      { benchExperiment(b, "Figure 2") }
func BenchmarkFigure3GTLDTCB(b *testing.B)         { benchExperiment(b, "Figure 3") }
func BenchmarkFigure4CCTLDTCB(b *testing.B)        { benchExperiment(b, "Figure 4") }
func BenchmarkFigure5VulnerableInTCB(b *testing.B) { benchExperiment(b, "Figure 5") }
func BenchmarkFigure6TCBSafety(b *testing.B)       { benchExperiment(b, "Figure 6") }
func BenchmarkFigure7Bottlenecks(b *testing.B)     { benchExperiment(b, "Figure 7") }
func BenchmarkFigure8NamesControlled(b *testing.B) { benchExperiment(b, "Figure 8") }
func BenchmarkFigure9EduOrgControl(b *testing.B)   { benchExperiment(b, "Figure 9") }
func BenchmarkTableATCBSummary(b *testing.B)       { benchExperiment(b, "T-A") }
func BenchmarkTableBPoisoning(b *testing.B)        { benchExperiment(b, "T-B") }
func BenchmarkTableCFBIHijack(b *testing.B)        { benchExperiment(b, "T-C") }
func BenchmarkTableDUkraineWorstCase(b *testing.B) { benchExperiment(b, "T-D") }

// BenchmarkSurveyCrawl measures the full crawl pipeline (walk + probe)
// at a small scale per iteration.
func BenchmarkSurveyCrawl(b *testing.B) {
	world, err := topology.Generate(topology.GenParams{Seed: 3, Names: 500})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := world.Registry.Source()
		r, err := world.Registry.Resolver(tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := crawler.Run(context.Background(), r, world.Corpus,
			world.Registry.ProbeFunc(tr), crawler.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurveyCrawlWorkers measures how crawl throughput scales with
// the worker pool over one fixed world. Queries run over a simulated
// 200µs round-trip (real surveys are network-bound; the paper's crawl
// was dominated by RTTs), so scaling comes from workers overlapping
// round-trips — which the sharded, single-flight engine must allow
// without duplicating transport work. Throughput should improve
// monotonically from 1 to 8 workers (≥2× at 8).
func BenchmarkSurveyCrawlWorkers(b *testing.B) {
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: 2000})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := transport.Chain(world.Registry.Source(),
					transport.Latency(transport.FixedRTT(200*time.Microsecond)))
				r, err := world.Registry.Resolver(tr)
				if err != nil {
					b.Fatal(err)
				}
				s, err := crawler.Run(context.Background(), r, world.Corpus, nil,
					crawler.Config{Workers: workers, SkipVersionProbe: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(s.Names) != len(world.Corpus) {
					b.Fatalf("walked %d of %d names", len(s.Names), len(world.Corpus))
				}
			}
			b.ReportMetric(float64(len(world.Corpus))*float64(b.N)/b.Elapsed().Seconds(), "names/s")
		})
	}
}

// BenchmarkReplayCrawl measures the offline crawl mode: a survey served
// entirely from a recorded query log through the wire codec — the
// throughput of re-running an analysis over a snapshot of the past.
func BenchmarkReplayCrawl(b *testing.B) {
	world, err := topology.Generate(topology.GenParams{Seed: 3, Names: 500})
	if err != nil {
		b.Fatal(err)
	}
	log := transport.NewLog()
	rec := transport.Chain(world.Registry.Source(), transport.Record(log))
	r, err := world.Registry.Resolver(rec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := crawler.Run(context.Background(), r, world.Corpus,
		world.Registry.ProbeFunc(rec), crawler.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay := transport.Replay(log)
		rp, err := world.Registry.Resolver(replay)
		if err != nil {
			b.Fatal(err)
		}
		s, err := crawler.Run(context.Background(), rp, world.Corpus,
			world.Registry.ProbeFunc(replay), crawler.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Names) != len(world.Corpus) {
			b.Fatalf("replayed %d of %d names", len(s.Names), len(world.Corpus))
		}
	}
	b.ReportMetric(float64(len(world.Corpus))*float64(b.N)/b.Elapsed().Seconds(), "names/s")
}

// BenchmarkWalkerContention isolates the walker's read path: every
// goroutine re-walks names whose chains are fully cached, so the
// benchmark measures pure contention on the discovery state (the old
// engine's single RWMutex versus the sharded caches) with no transport
// work.
func BenchmarkWalkerContention(b *testing.B) {
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: 400})
	if err != nil {
		b.Fatal(err)
	}
	r, err := world.Registry.Resolver(nil)
	if err != nil {
		b.Fatal(err)
	}
	w := resolver.NewWalker(r)
	ctx := context.Background()
	for _, n := range world.Corpus {
		if _, err := w.WalkName(ctx, n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	// b.Fatal must not be called from RunParallel workers; collect the
	// first error and fail on the benchmark goroutine.
	var walkErr atomic.Pointer[error]
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			name := world.Corpus[i%len(world.Corpus)]
			i++
			if _, err := w.WalkName(ctx, name); err != nil {
				walkErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	if errp := walkErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
}

// BenchmarkAblationTransportDirect vs ...Wire quantify the cost of full
// wire-format framing on every query (the codec is exercised either way
// by the network tests; this isolates pack/unpack overhead).
func BenchmarkAblationTransportDirect(b *testing.B) { benchTransport(b, false) }
func BenchmarkAblationTransportWire(b *testing.B)   { benchTransport(b, true) }

func benchTransport(b *testing.B, wire bool) {
	world, err := topology.Generate(topology.GenParams{Seed: 3, Names: 400})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := world.Registry.Source()
		if wire {
			tr = transport.Chain(tr, transport.WireFramed())
		}
		r, err := world.Registry.Resolver(tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := crawler.Run(context.Background(), r, world.Corpus, nil,
			crawler.Config{SkipVersionProbe: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMillionNameBuild measures incremental graph construction at
// survey scale: a synthetic corpus streams through the core.Builder
// event API (zones, chains, completions in causal order) and Finish runs
// the closure pass. The 100k and 1M sub-benchmarks bracket the scaling
// claim: with no end-of-crawl string buffer, bytes/op must grow
// linearly in the name count with a small per-name constant (the name
// string and its chain-id map entry), not with per-name chain slices —
// compare B/op÷names across the two scales.
func BenchmarkMillionNameBuild(b *testing.B) {
	for _, scale := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("names=%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			var finishNs float64
			for i := 0; i < b.N; i++ {
				g, finish := core.SyntheticBuild(scale)
				finishNs += float64(finish.Nanoseconds())
				if g.NumHosts() == 0 || g.NumNames() != scale {
					b.Fatalf("built %d names, %d hosts", g.NumNames(), g.NumHosts())
				}
			}
			b.ReportMetric(float64(scale)*float64(b.N)/b.Elapsed().Seconds(), "names/s")
			b.ReportMetric(finishNs/float64(b.N)/1e6, "finish-ms/op")
		})
	}
}

// BenchmarkMonitorIncrementalAdd compares delivering a million-name
// corpus in ten incremental epochs (the Monitor's Add path: feed a
// batch, finalize an epoch snapshot, repeat) against one batch build
// with a single terminal Finish. Each epoch's closure pass covers only
// the zones and chains its batch added, so the incremental path pays
// ten rounds of per-epoch slice headers over the batch build — the
// price of having a queryable, immutable view after every batch instead
// of only at the end.
func BenchmarkMonitorIncrementalAdd(b *testing.B) {
	const total = 1_000_000
	const batches = 10
	b.Run("batch=1x1M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, _ := core.SyntheticBuild(total)
			if g.NumNames() != total {
				b.Fatalf("built %d names", g.NumNames())
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "names/s")
	})
	b.Run("adds=10x100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bu := core.NewBuilder(total)
			var g *core.Graph
			for lo := 0; lo < total; lo += total / batches {
				core.FeedSyntheticRange(bu, lo, lo+total/batches, total)
				g = bu.FinishEpoch()
			}
			if g.NumNames() != total {
				b.Fatalf("built %d names", g.NumNames())
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "names/s")
	})
}

// BenchmarkFinishEpochSmallBatch measures what a commit costs when
// little changed: after one 100k-name epoch, each op feeds 50 new names
// (one new zone, two hosts, one chain) and finalizes an epoch. The cost
// must be that of the batch plus O(zones+chains) slice headers — not a
// closure pass over the 100k names already there. cmd/benchdiff gates
// the dnsbench copy on ns/op per name already in the survey.
func BenchmarkFinishEpochSmallBatch(b *testing.B) {
	const base, batch = 100_000, 50
	total := base + batch*b.N
	bu := core.NewBuilder(total)
	core.FeedSyntheticRange(bu, 0, base, total)
	g := bu.FinishEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for lo := base; lo < total; lo += batch {
		core.FeedSyntheticRange(bu, lo, lo+batch, total)
		g = bu.FinishEpoch()
	}
	b.StopTimer()
	if g.NumNames() != total {
		b.Fatalf("built %d of %d names", g.NumNames(), total)
	}
}

// BenchmarkViewQueryThroughput measures the Monitor's read side:
// parallel TCB and Bottleneck queries against committed views while an
// Add crawls the second half of the corpus. Reads never block on the
// crawl — the whole point of the epoch-snapshot design — so throughput
// should match a quiescent monitor's.
func BenchmarkViewQueryThroughput(b *testing.B) {
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: 2000})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	m, err := OpenWorld(ctx, world, Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	half := len(world.Corpus) / 2
	if _, err := m.Add(ctx, world.Corpus[:half]...); err != nil {
		b.Fatal(err)
	}
	names := m.At().Names()

	// Keep a crawl in flight for (at least the start of) the measured
	// window; the bench is still valid after it completes.
	addDone := make(chan error, 1)
	go func() { _, err := m.Add(ctx, world.Corpus[half:]...); addDone <- err }()

	b.ReportAllocs()
	b.ResetTimer()
	var readErr atomic.Pointer[error]
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			v := m.At()
			name := names[i%len(names)]
			i++
			if _, err := v.TCB(name); err != nil {
				readErr.CompareAndSwap(nil, &err)
				return
			}
			if _, err := v.Bottleneck(name); err != nil {
				readErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	b.StopTimer()
	if errp := readErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
	if err := <-addDone; err != nil {
		b.Fatal(err)
	}
}

// memoBenchStudy is the 100k-name study behind
// BenchmarkChainMemoSecondPass — its own scale (the acceptance claim is
// stated at 100k names), built once per test binary: every generation
// of the corpus less its last memoBenchCommits×memoBenchBatch names,
// then that many small commits, all retained.
var (
	memoBenchOnce  sync.Once
	memoBenchGens  []*crawler.Survey
	memoBenchErr   error
	memoBenchScale = 100_000
)

const memoBenchCommits, memoBenchBatch = 64, 50

func sharedMemoBenchStudy(b *testing.B) []*crawler.Survey {
	b.Helper()
	memoBenchOnce.Do(func() {
		memoBenchGens, memoBenchErr = commitSeries(Options{Seed: 3, Names: memoBenchScale, Retain: memoBenchCommits + 1}, memoBenchCommits, memoBenchBatch)
	})
	if memoBenchErr != nil {
		b.Fatal(memoBenchErr)
	}
	return memoBenchGens
}

// commitSeries surveys the world's corpus less its last commits×batch
// names, then commits those names batch by batch, and returns the
// surveys of the first big generation and of every commit after it.
func commitSeries(opts Options, commits, batch int) ([]*crawler.Survey, error) {
	ctx := context.Background()
	m, err := Open(ctx, opts)
	if err != nil {
		return nil, err
	}
	corpus := m.World().Corpus
	head := len(corpus) - commits*batch
	var gens []*crawler.Survey
	v, err := m.Add(ctx, corpus[:head]...)
	for i := 0; err == nil; i++ {
		gens = append(gens, v.Survey())
		if i == commits {
			break
		}
		v, err = m.Add(ctx, corpus[head+i*batch:head+(i+1)*batch]...)
	}
	return gens, errors.Join(err, m.Close())
}

// BenchmarkChainMemoSecondPass measures what the chain memo saves on a
// real 100k-name survey (~70k distinct delegation chains): "first" is a
// cold Summary+Bottlenecks pass through an empty memo; "second" is the
// same pass on the view a 50-name commit just published, through a memo
// warm from the generation before — the fold of one commit's changed
// names into the memo's aggregates, with min-cuts solved only for new
// chains. Compare the two ns/op.
func BenchmarkChainMemoSecondPass(b *testing.B) {
	gens := sharedMemoBenchStudy(b)
	ctx := context.Background()
	pass := func(b *testing.B, sv *crawler.Survey, memo *analysis.ChainMemo) {
		if _, err := analysis.BottlenecksMemo(ctx, sv, sv.Names, 0, memo); err != nil {
			b.Fatal(err)
		}
		if sum := analysis.SummarizeMemo(sv, sv.Names, memo); sum.Names != len(sv.Names) {
			b.Fatalf("summary covered %d of %d names", sum.Names, len(sv.Names))
		}
	}
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pass(b, gens[len(gens)-1], analysis.NewChainMemo())
		}
	})
	b.Run("second", func(b *testing.B) {
		var memo *analysis.ChainMemo
		for i := 0; i < b.N; i++ {
			j := i%(len(gens)-1) + 1
			if j == 1 {
				// A memo cold at the first generation with every commit
				// after it logged: iteration j folds commit j alone.
				b.StopTimer()
				memo = analysis.NewChainMemo()
				pass(b, gens[0], memo)
				for k := 1; k < len(gens); k++ {
					memo.Advance(gens[k-1], gens[k])
				}
				b.StartTimer()
			}
			pass(b, gens[j], memo)
		}
	})
}

// BenchmarkTimelineDiff backs the timeline's O(changed) claim: after a
// small Add on a 100k-name survey, diffing the two generations must
// cost proportional to what changed (the touched names and late-changed
// chains), not the corpus — identical chain ids short-circuit without
// being read. The measured op is the full typed Delta: name
// classification, TCB set diffs, and min-cuts for changed chains.
func BenchmarkTimelineDiff(b *testing.B) {
	const scale = 100_000
	const extra = 50
	bu := core.NewBuilder(scale + extra)
	core.FeedSyntheticRange(bu, 0, scale, scale+extra)
	older := crawler.FromGraph(bu.FinishEpoch())
	core.FeedSyntheticRange(bu, scale, scale+extra, scale+extra)
	newer := crawler.FromGraph(bu.FinishEpoch())

	b.Run(fmt.Sprintf("names=%d", scale), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := delta.Compute(context.Background(), older, newer, delta.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if len(d.NamesAdded) != extra {
				b.Fatalf("delta saw %d added names, want %d", len(d.NamesAdded), extra)
			}
		}
	})
}

// BenchmarkSnapshotColdStart backs the restart claim: reopening a
// monitored survey from a binary epoch-store snapshot versus rebuilding
// it by re-crawling from a recorded query log (the previous-best offline
// restart path). Both sub-benchmarks end at the same observable state —
// a live Monitor serving the committed generation — so their ns/op
// ratio is the restart speedup; at 100k names (cmd/dnsbench
// -snapshot-names, recorded in BENCH_6.json) the snapshot path must be
// ≥50x faster. The snapshot load issues zero transport queries.
func BenchmarkSnapshotColdStart(b *testing.B) {
	const scale = 6000
	world, err := topology.Generate(topology.GenParams{Seed: 7, Names: scale})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	qlog := transport.NewLog()
	snapPath := filepath.Join(b.TempDir(), "bench.snap")
	m, err := OpenWorld(ctx, world, Options{RecordLog: qlog, SnapshotFile: snapPath})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		b.Fatal(err)
	}
	if err := m.Close(); err != nil { // saves the snapshot
		b.Fatal(err)
	}

	coldStart := func(b *testing.B, opts Options, crawl bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := OpenWorld(ctx, world, opts)
			if err != nil {
				b.Fatal(err)
			}
			if crawl {
				if _, err := m.Add(ctx, world.Corpus...); err != nil {
					b.Fatal(err)
				}
			} else if m.Queries() != 0 {
				b.Fatalf("snapshot cold start issued %d queries", m.Queries())
			}
			if got := m.At().NumNames(); got != len(world.Corpus) {
				b.Fatalf("cold start serves %d of %d names", got, len(world.Corpus))
			}
			b.StopTimer()
			m.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(scale)*float64(b.N)/b.Elapsed().Seconds(), "names/s")
	}
	b.Run(fmt.Sprintf("snapshot/names=%d", scale), func(b *testing.B) {
		coldStart(b, Options{SnapshotFile: snapPath}, false)
	})
	b.Run(fmt.Sprintf("replay/names=%d", scale), func(b *testing.B) {
		coldStart(b, Options{ReplayLog: qlog}, true)
	})
}

// BenchmarkMonitorWriteSnapshot measures what one fleet shard's
// snapshot write costs after a commit: the shard monitor owns a third
// of a 6000-name corpus (ring partition), crawled as one batch and then
// moved on by 50-name commits, each followed by a write as a fleet
// round asks of every changed shard. Each op commits the next 50 names
// (untimed; once the reserve is spent the commit re-adds names already
// surveyed) and times the write. bytes is the file size.
func BenchmarkMonitorWriteSnapshot(b *testing.B) {
	const batch, warmCommits = 50, 4
	world, err := topology.Generate(topology.GenParams{Seed: 1, Names: 6000})
	if err != nil {
		b.Fatal(err)
	}
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	part := ring.Assign(world.Corpus)[0]
	ctx := context.Background()
	m, err := OpenWorld(ctx, world, Options{Workers: 4, ShardName: ring.Shards()[0], Retain: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	first := len(part) / 2
	if _, err := m.Add(ctx, part[:first]...); err != nil {
		b.Fatal(err)
	}
	next := first
	var buf bytes.Buffer
	commitAndWrite := func() {
		names := part[next-batch : next]
		if next+batch <= len(part) {
			names = part[next : next+batch]
			next += batch
		}
		b.StopTimer()
		if _, err := m.Add(ctx, names...); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		b.StartTimer()
		if err := m.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warmCommits; i++ {
		commitAndWrite()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commitAndWrite()
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len()), "bytes")
}

// BenchmarkAblationMinCutDinic vs ...ANDORBound compare the paper's
// per-name digraph min-cut against the global AND/OR tree-cost fixpoint
// (an upper bound on the true minimum hijack, exact on trees).
func BenchmarkAblationMinCutDinic(b *testing.B) {
	s := sharedBenchStudy(b)
	names := s.Survey().Names
	if len(names) > 500 {
		names = names[:500]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := analysis.Bottlenecks(context.Background(), s.Survey(), names, 0)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Names == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkAblationMinCutANDORBound(b *testing.B) {
	s := sharedBenchStudy(b)
	names := s.Survey().Names
	if len(names) > 500 {
		names = names[:500]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := analysis.ANDORHijackBound(s.Survey(), names)
		if len(out) != len(names) {
			b.Fatal("missing results")
		}
	}
}

// BenchmarkMinCutSingle measures one per-name min-cut end to end: the
// digraph fill and both cuts, on scratch kept across iterations the way a
// worker of the survey pass keeps it.
func BenchmarkMinCutSingle(b *testing.B) {
	sv := sharedBenchStudy(b).Survey()
	g := sv.Graph
	cid, ok := g.NameChainID(sv.Names[0])
	if !ok {
		b.Fatalf("%s not surveyed", sv.Names[0])
	}
	vuln := func(h int32) bool { return sv.Vulnerable(g.Host(h)) }
	var d core.Digraph
	var solver mincut.Solver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Fill(g, cid); err != nil {
			b.Fatal(err)
		}
		if _, err := solver.Analyze(&d, vuln); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerdictLookup is the serving-path acceptance benchmark: the
// verdict cache must sustain >=100k lookups/s while a concurrent
// Add+commit loop churns generations underneath it — every commit runs
// the precise eviction pass, so the bench measures the hit path under
// real invalidation pressure, not a quiescent cache. Gated by
// cmd/benchdiff on ns/op and on the absolute lookups/s floor.
func BenchmarkVerdictLookup(b *testing.B) {
	const scale = 2000
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: scale})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	m, err := OpenWorld(ctx, world, Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	m.OnCommit(func(v *View) { cache.Advance(v.Survey()) })
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		b.Fatal(err)
	}
	names := m.At().Names()
	for _, n := range names {
		cache.Lookup(n)
	}

	// Prove the churn path commits before measuring: a re-add of existing
	// names must still commit a fresh generation for the bench to mean
	// anything.
	preGen := m.Generation()
	if _, err := m.Add(ctx, names[:25]...); err != nil {
		b.Fatal(err)
	}
	if m.Generation() == preGen {
		b.Fatal("re-add did not commit a generation; churn loop would be a no-op")
	}

	b.Run(fmt.Sprintf("names=%d", scale), func(b *testing.B) {
		// Generation churn for the whole measured window: re-adding a
		// rotating batch always commits, and each commit's journal marks
		// the batch's names changed, so the eviction pass has real work.
		// (Short calibration runs of b.N may see zero commits land; the
		// final timed run is seconds long and sees hundreds.)
		stop := make(chan struct{})
		type churnResult struct {
			commits uint64
			err     error
		}
		churned := make(chan churnResult, 1)
		go func() {
			var res churnResult
			defer func() { churned <- res }()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := (i * 25) % len(names)
				hi := lo + 25
				if hi > len(names) {
					hi = len(names)
				}
				if _, err := m.Add(ctx, names[lo:hi]...); err != nil {
					res.err = err
					return
				}
				res.commits++
				i++
			}
		}()

		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				v := cache.Lookup(names[i%len(names)])
				i++
				if v == nil {
					panic("nil verdict")
				}
			}
		})
		b.StopTimer()
		close(stop)
		res := <-churned
		if res.err != nil {
			b.Fatal(res.err)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
		b.ReportMetric(float64(res.commits), "commits")
	})
}

// BenchmarkProxyServe measures the proxy handler end to end at the Go
// call level: verdict lookup plus a full iterative upstream resolution
// against the in-memory registry per query. Gated by cmd/benchdiff.
func BenchmarkProxyServe(b *testing.B) {
	const scale = 2000
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: scale})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	m, err := OpenWorld(ctx, world, Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	m.OnCommit(func(v *View) { cache.Advance(v.Survey()) })
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		b.Fatal(err)
	}
	names := m.At().Names()
	src := world.Registry.Source()
	defer src.Close()
	r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		b.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache})
	if err != nil {
		b.Fatal(err)
	}

	b.Run(fmt.Sprintf("names=%d", scale), func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				name := names[i%len(names)]
				i++
				resp := p.ServeDNS(ctx, dnswire.NewQuery(uint16(i), name, dnswire.TypeA, dnswire.ClassINET))
				if resp == nil || resp.RCode == dnswire.RCodeServFail {
					panic(fmt.Sprintf("proxy failed on %s: %v", name, resp))
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkProxyUDP measures the full serving stack over real loopback
// sockets: dnsserver frontend, verdict cache, iterative upstream
// resolution, one UDP round-trip per query. Informational (socket
// throughput varies too much across machines to gate).
func BenchmarkProxyUDP(b *testing.B) {
	const scale = 2000
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: scale})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	m, err := OpenWorld(ctx, world, Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	m.OnCommit(func(v *View) { cache.Advance(v.Survey()) })
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		b.Fatal(err)
	}
	names := m.At().Names()
	src := world.Registry.Source()
	defer src.Close()
	r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		b.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := dnsserver.Start(ctx, "127.0.0.1:0", dnsserver.Config{Handler: p})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	b.ReportAllocs()
	b.ResetTimer()
	var queryErr atomic.Pointer[error]
	b.RunParallel(func(pb *testing.PB) {
		c := dnsclient.New(dnsclient.Config{Timeout: 5 * time.Second})
		i := 0
		for pb.Next() {
			name := names[i%len(names)]
			i++
			resp, err := c.Query(ctx, addr, name, dnswire.TypeA, dnswire.ClassINET)
			if err != nil {
				queryErr.CompareAndSwap(nil, &err)
				return
			}
			if resp.RCode == dnswire.RCodeServFail {
				err := fmt.Errorf("SERVFAIL for %s", name)
				queryErr.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	b.StopTimer()
	if errp := queryErr.Load(); errp != nil {
		b.Fatal(*errp)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkHijackMonteCarlo measures attack-simulation trials.
func BenchmarkHijackMonteCarlo(b *testing.B) {
	s := sharedBenchStudy(b)
	name := s.Survey().Names[0]
	res, err := s.Bottleneck(name)
	if err != nil {
		b.Fatal(err)
	}
	atk, err := s.Attack(res.Cut, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frac, err := atk.MonteCarlo(name, 100, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if frac != 1 {
			b.Fatalf("min-cut compromise gave trial fraction %v", frac)
		}
	}
}
