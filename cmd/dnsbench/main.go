// Command dnsbench runs the survey engine's benchmark suite and writes
// the results as machine-readable JSON, so the performance trajectory of
// the crawl engine is tracked from PR to PR.
//
// Usage:
//
//	dnsbench [-out BENCH_1.json] [-names 1200] [-seed 5] [-rtt 200µs]
//
// The crawl benchmarks run over a simulated per-query round-trip
// (surveys are network-bound; worker scaling means overlapping RTTs),
// plus a zero-RTT CPU-only crawl, a cache-contention microbench, the
// incremental graph-build benchmarks (synthetic 100k/1M-name corpora
// streamed through core.Builder, reporting build time and per-name
// memory so the flat-memory claim is tracked from PR to PR), the
// Monitor-era benchmarks (incremental epoch adds vs one batch build,
// the cost of a 50-name commit on a 100k-name survey (gated), view read
// throughput during a crawl, a cold Summary+Bottlenecks pass against
// the warm fold of one small commit on a real survey via -memo-names),
// the timeline benchmarks: the warm generation diff after a small Add
// on a 100k-name survey (gated) and the retained-generation memory
// comparison — bytes/generation with the copy-on-write epoch store
// versus detached full-table epochs — the snapshot cold-start benchmark (gated):
// restoring a 100k-name monitor from a binary epoch-store snapshot
// versus rebuilding it from a recorded query log, via -snapshot-names —
// and the serving-path benchmarks (gated): the verdict cache hit path
// under concurrent generation commits (held to an absolute >=100k
// lookups/s floor by cmd/benchdiff) and the proxy handler end to end.
// The fleet merge benchmark (gated) measures the coordinator's
// id-remapping merge: three shard snapshots of the survey corpus are
// decoded once up front, then each iteration unions them into a fresh
// fleet view, reported as ns/name over the merged corpus.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dnstrust"
	"dnstrust/internal/analysis"
	"dnstrust/internal/atomicio"
	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/delta"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/fleet"
	"dnstrust/internal/proxy"
	"dnstrust/internal/resolver"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

// Result is one benchmark's machine-readable outcome.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the file schema of BENCH_N.json.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Names      int      `json:"names"`
	Seed       int64    `json:"seed"`
	RTT        string   `json:"rtt"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_8.json", "output file")
	names := flag.Int("names", 1200, "benchmark corpus size")
	seed := flag.Int64("seed", 5, "world generation seed")
	rtt := flag.Duration("rtt", 200*time.Microsecond, "simulated per-query round-trip for crawl benches")
	memoNames := flag.Int("memo-names", 20_000, "survey size for the chain-memo second-pass benchmark (0 skips it; BENCH_3.json was recorded at 100000)")
	snapNames := flag.Int("snapshot-names", 100_000, "survey size for the snapshot cold-start benchmark (0 skips it; the >=50x restart claim is stated at 100000)")
	flag.Parse()

	world, err := topology.Generate(topology.GenParams{Seed: *seed, Names: *names})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
		os.Exit(1)
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Names:      *names,
		Seed:       *seed,
		RTT:        rtt.String(),
	}

	crawlBench := func(workers int, queryRTT time.Duration) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := world.Registry.Source()
				if queryRTT > 0 {
					tr = transport.Chain(tr, transport.Latency(transport.FixedRTT(queryRTT)))
				}
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
		}
	}

	run := func(name string, fn func(b *testing.B)) {
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		r := testing.Benchmark(fn)
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Extra:       r.Extra,
		})
	}

	for _, workers := range []int{1, 4, 8, 16} {
		run(fmt.Sprintf("SurveyCrawlWorkers/workers=%d", workers), crawlBench(workers, *rtt))
	}
	run("SurveyCrawlDirect", crawlBench(0, 0))

	// Replay throughput: record one direct crawl (including fingerprint
	// probes), then measure how fast a whole survey is served back from
	// the recorded log alone — the offline crawl-from-recording mode.
	// Gated by cmd/benchdiff on replay ns/name alongside the build gate.
	{
		log := transport.NewLog()
		rec := transport.Chain(world.Registry.Source(), transport.Record(log))
		r, err := world.Registry.Resolver(rec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		if _, err := crawler.Run(context.Background(), r, world.Corpus,
			world.Registry.ProbeFunc(rec), crawler.Config{}); err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: recording crawl: %v\n", err)
			os.Exit(1)
		}
		run(fmt.Sprintf("ReplayCrawl/names=%d", len(world.Corpus)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rp, err := world.Registry.Resolver(transport.Replay(log))
				if err != nil {
					b.Fatal(err)
				}
				s, err := crawler.Run(context.Background(), rp, world.Corpus,
					world.Registry.ProbeFunc(transport.Replay(log)), crawler.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if len(s.Names) != len(world.Corpus) {
					b.Fatalf("replayed %d of %d names", len(s.Names), len(world.Corpus))
				}
			}
			b.ReportMetric(float64(len(world.Corpus))*float64(b.N)/b.Elapsed().Seconds(), "names/s")
		})
	}
	for _, scale := range []int{100_000, 1_000_000} {
		scale := scale
		run(fmt.Sprintf("IncrementalBuild/names=%d", scale), func(b *testing.B) {
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
	// Timeline benchmarks: the warm generation diff after a small Add on
	// a 100k-name survey (gated by cmd/benchdiff: identical chains must
	// keep short-circuiting, so diff cost tracks what changed, not the
	// corpus), and the retention memory claim — bytes pinned per live
	// generation with the copy-on-write epoch store versus detached
	// full-table epochs.
	{
		const scale = 100_000
		const extra = 50
		bu := core.NewBuilder(scale + extra)
		core.FeedSyntheticRange(bu, 0, scale, scale+extra)
		older := crawler.FromGraph(bu.FinishEpoch())
		core.FeedSyntheticRange(bu, scale, scale+extra, scale+extra)
		newer := crawler.FromGraph(bu.FinishEpoch())
		run(fmt.Sprintf("TimelineDiff/names=%d", scale), func(b *testing.B) {
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
	rep.Benchmarks = append(rep.Benchmarks, measureRetention())

	// Fleet merge (gated): the corpus is partitioned over a three-shard
	// consistent-hash ring, each partition crawled on its own engine and
	// exported as a snapshot epoch once outside the timer; the benchmark
	// then measures the coordinator's id-remapping union of those epochs
	// into a fresh merged view — the cold-commit cost a fleet router pays
	// per round, with zero transport traffic by construction.
	{
		ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
		parts := ring.Assign(world.Corpus)
		shardNames := ring.Shards()
		shards := make([]fleet.Shard, len(shardNames))
		for i, name := range shardNames {
			tr := world.Registry.Source()
			r, err := world.Registry.Resolver(tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
				os.Exit(1)
			}
			e := crawler.NewEngine(r, world.Registry.ProbeFunc(tr), crawler.Config{Workers: 4, ShardName: name})
			if _, err := e.Add(context.Background(), parts[i]...); err != nil {
				fmt.Fprintf(os.Stderr, "dnsbench: shard %s crawl: %v\n", name, err)
				os.Exit(1)
			}
			var buf bytes.Buffer
			if err := e.WriteSnapshot(&buf); err != nil {
				fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
				os.Exit(1)
			}
			e.Close()
			f, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
				os.Exit(1)
			}
			ep, err := fleet.DecodeEpoch(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
				os.Exit(1)
			}
			shards[i] = fleet.Shard{Name: name, Source: &fleet.FixedSource{Epoch: ep}}
		}
		run(fmt.Sprintf("FleetMerge/shards=%d/names=%d", len(shardNames), len(world.Corpus)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := fleet.New(shards, fleet.Config{})
				if err != nil {
					b.Fatal(err)
				}
				fv, err := c.Commit(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if fv.NumNames() != len(world.Corpus) {
					b.Fatalf("merged %d of %d names", fv.NumNames(), len(world.Corpus))
				}
			}
			b.ReportMetric(float64(len(world.Corpus))*float64(b.N)/b.Elapsed().Seconds(), "names/s")
		})
	}

	// Monitor-era benchmarks: incremental epoch adds vs one batch build,
	// read throughput against immutable views during a crawl, and the
	// chain-memo warm/cold ratio (what a warm memo saves a second pass).
	run("MonitorIncrementalAdd/batch=1x1M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, _ := core.SyntheticBuild(1_000_000)
			if g.NumNames() != 1_000_000 {
				b.Fatalf("built %d names", g.NumNames())
			}
		}
		b.ReportMetric(1_000_000*float64(b.N)/b.Elapsed().Seconds(), "names/s")
	})
	run("MonitorIncrementalAdd/adds=10x100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bu := core.NewBuilder(1_000_000)
			var g *core.Graph
			for lo := 0; lo < 1_000_000; lo += 100_000 {
				core.FeedSyntheticRange(bu, lo, lo+100_000, 1_000_000)
				g = bu.FinishEpoch()
			}
			if g.NumNames() != 1_000_000 {
				b.Fatalf("built %d names", g.NumNames())
			}
		}
		b.ReportMetric(1_000_000*float64(b.N)/b.Elapsed().Seconds(), "names/s")
	})

	// Commit cost when little changed: 50-name epochs on top of a
	// 100k-name one. Gated by cmd/benchdiff per name already surveyed —
	// a regression means a commit started scanning the corpus again.
	run("FinishEpochSmallBatch/names=100000", func(b *testing.B) {
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
	})

	run("ViewQueryThroughput", func(b *testing.B) {
		ctx := context.Background()
		m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		half := len(world.Corpus) / 2
		if _, err := m.Add(ctx, world.Corpus[:half]...); err != nil {
			b.Fatal(err)
		}
		vnames := m.At().Names()
		addDone := make(chan error, 1)
		go func() { _, err := m.Add(ctx, world.Corpus[half:]...); addDone <- err }()
		b.ReportAllocs()
		b.ResetTimer()
		var readErr atomic.Pointer[error]
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				v := m.At()
				name := vnames[i%len(vnames)]
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
	})

	if *memoNames > 0 {
		// The corpus less its last commits×batch names, then one
		// generation per batch, every one retained: "first" is a cold
		// pass over the newest; "second" folds one small commit into a
		// memo warm from the generation before it.
		ctx := context.Background()
		const commits = 64
		batch := min(50, *memoNames/(4*commits))
		memoMon, err := dnstrust.Open(ctx, dnstrust.Options{Seed: 3, Names: *memoNames, Retain: commits + 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		corpus := memoMon.World().Corpus
		head := len(corpus) - commits*batch
		var gens []*crawler.Survey
		v, err := memoMon.Add(ctx, corpus[:head]...)
		for i := 0; err == nil; i++ {
			gens = append(gens, v.Survey())
			if i == commits || batch == 0 {
				break
			}
			v, err = memoMon.Add(ctx, corpus[head+i*batch:head+(i+1)*batch]...)
		}
		memoMon.Close() // nothing to save: no memo or snapshot file
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		memoPass := func(b *testing.B, sv *crawler.Survey, memo *analysis.ChainMemo) {
			if _, err := analysis.BottlenecksMemo(ctx, sv, sv.Names, 0, memo); err != nil {
				b.Fatal(err)
			}
			if sum := analysis.SummarizeMemo(sv, sv.Names, memo); sum.Names != len(sv.Names) {
				b.Fatalf("summary covered %d of %d names", sum.Names, len(sv.Names))
			}
		}
		run("ChainMemoSecondPass/first", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				memoPass(b, gens[len(gens)-1], analysis.NewChainMemo())
			}
		})
		if len(gens) > 1 {
			run("ChainMemoSecondPass/second", func(b *testing.B) {
				var memo *analysis.ChainMemo
				for i := 0; i < b.N; i++ {
					j := i%(len(gens)-1) + 1
					if j == 1 {
						b.StopTimer()
						memo = analysis.NewChainMemo()
						memoPass(b, gens[0], memo)
						for k := 1; k < len(gens); k++ {
							memo.Advance(gens[k-1], gens[k])
						}
						b.StartTimer()
					}
					memoPass(b, gens[j], memo)
				}
			})
		}
	}

	// Snapshot cold start: restoring a monitored survey from a binary
	// epoch-store snapshot versus rebuilding it by re-crawling from a
	// recorded query log (the previous-best offline restart path). Both
	// gated by cmd/benchdiff on ns/name; the snapshot/replay ns/op ratio
	// is the restart speedup the >=50x claim rests on.
	if *snapNames > 0 {
		snapWorld, err := topology.Generate(topology.GenParams{Seed: 7, Names: *snapNames})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		qlog := transport.NewLog()
		snapPath := filepath.Join(os.TempDir(), fmt.Sprintf("dnsbench-%d.snap", os.Getpid()))
		defer os.Remove(snapPath)
		ctx := context.Background()
		fmt.Fprintf(os.Stderr, "crawling %d names for the snapshot cold-start benchmark...\n", *snapNames)
		m, err := dnstrust.OpenWorld(ctx, snapWorld, dnstrust.Options{RecordLog: qlog, SnapshotFile: snapPath})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		if _, err := m.Add(ctx, snapWorld.Corpus...); err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		if err := m.Close(); err != nil { // saves the snapshot
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		var snapSize float64
		if fi, err := os.Stat(snapPath); err == nil {
			snapSize = float64(fi.Size())
		}
		coldStart := func(opts dnstrust.Options, crawl bool) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := dnstrust.OpenWorld(ctx, snapWorld, opts)
					if err != nil {
						b.Fatal(err)
					}
					if crawl {
						if _, err := m.Add(ctx, snapWorld.Corpus...); err != nil {
							b.Fatal(err)
						}
					} else if m.Queries() != 0 {
						b.Fatalf("snapshot cold start issued %d queries", m.Queries())
					}
					if got := m.At().NumNames(); got != len(snapWorld.Corpus) {
						b.Fatalf("cold start serves %d of %d names", got, len(snapWorld.Corpus))
					}
					b.StopTimer()
					m.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(*snapNames)*float64(b.N)/b.Elapsed().Seconds(), "names/s")
				if !crawl {
					b.ReportMetric(snapSize, "snapshot-bytes")
				}
			}
		}
		run(fmt.Sprintf("SnapshotColdStart/snapshot/names=%d", *snapNames),
			coldStart(dnstrust.Options{SnapshotFile: snapPath}, false))
		run(fmt.Sprintf("SnapshotColdStart/replay/names=%d", *snapNames),
			coldStart(dnstrust.Options{ReplayLog: qlog}, true))
	}

	// Serving-path benchmarks: the verdict cache under generation churn
	// (gated by cmd/benchdiff on ns/op and on the absolute >=100k
	// lookups/s floor) and the proxy handler end to end (gated on ns/op).
	{
		ctx := context.Background()
		m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Workers: 4})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{TTL: time.Hour})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		m.OnCommit(func(v *dnstrust.View) { cache.Advance(v.Survey()) })
		if _, err := m.Add(ctx, world.Corpus...); err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		vnames := m.At().Names()
		for _, n := range vnames {
			cache.Lookup(n)
		}
		run(fmt.Sprintf("VerdictLookup/names=%d", len(world.Corpus)), func(b *testing.B) {
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
					lo := (i * 25) % len(vnames)
					hi := lo + 25
					if hi > len(vnames) {
						hi = len(vnames)
					}
					if _, err := m.Add(ctx, vnames[lo:hi]...); err != nil {
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
					if cache.Lookup(vnames[i%len(vnames)]) == nil {
						panic("nil verdict")
					}
					i++
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

		src := world.Registry.Source()
		r, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		p, err := proxy.New(proxy.Config{Resolver: r, Cache: cache})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
			os.Exit(1)
		}
		run(fmt.Sprintf("ProxyServe/names=%d", len(world.Corpus)), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					name := vnames[i%len(vnames)]
					i++
					resp := p.ServeDNS(ctx, dnswire.NewQuery(uint16(i), name, dnswire.TypeA, dnswire.ClassINET))
					if resp == nil || resp.RCode == dnswire.RCodeServFail {
						panic(fmt.Sprintf("proxy failed on %s: %v", name, resp))
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
		src.Close()
		cache.Close()
		m.Close()
	}

	run("WalkerContention", func(b *testing.B) {
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
		// b.Fatal must not be called from RunParallel workers; collect
		// the first error and fail on the benchmark goroutine.
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
	})

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
		os.Exit(1)
	}
	writeReport(*out, data, len(rep.Benchmarks))
}

// measureRetention quantifies what one retained generation costs: a
// 100k-name survey takes eight small Adds, each committing an epoch that
// stays live. With the copy-on-write epoch store a generation pins array
// headers plus whatever changed; the "without" baseline detaches each
// epoch into a self-contained graph (cloned intern maps, materialized
// chain tables) — the cost every retained generation paid before the
// store existed. Reported as heap bytes per generation after a full GC.
func measureRetention() Result {
	fmt.Fprintln(os.Stderr, "running RetainedGenerationMemory...")
	const scale = 100_000
	const gens = 8
	const extra = 50
	total := scale + gens*extra

	bu := core.NewBuilder(total)
	core.FeedSyntheticRange(bu, 0, scale, total)
	base := bu.FinishEpoch()

	heap := func() float64 {
		// Two cycles so transient build garbage (scratch unions the
		// copy-on-write aliasing dropped, finalizer-held spans) is fully
		// reclaimed before reading — the per-generation signal is small.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}

	retained := make([]*core.Graph, 0, gens)
	for i := 0; i < gens; i++ {
		lo := scale + i*extra
		core.FeedSyntheticRange(bu, lo, lo+extra, total)
		retained = append(retained, bu.FinishEpoch())
	}

	// Measure by *dropping* references between settled readings, so the
	// deltas isolate exactly the retained structures (heap churn from
	// unrelated earlier work cancels out): first the cost of N detached
	// (full-table) copies, then the cost of the N-1 older copy-on-write
	// generations relative to keeping only the newest.
	hAll := heap()
	detached := make([]*core.Graph, 0, gens-1)
	for _, g := range retained[:gens-1] {
		detached = append(detached, g.Detach())
	}
	hDetached := heap()
	runtime.KeepAlive(detached)
	detached = nil
	for i := range retained[:gens-1] {
		retained[i] = nil
	}
	hNewestOnly := heap()

	fullPerGen := (hDetached - hAll) / (gens - 1)
	cowPerGen := (hAll - hNewestOnly) / (gens - 1)
	runtime.KeepAlive(base)
	runtime.KeepAlive(retained)

	return Result{
		Name:       fmt.Sprintf("RetainedGenerationMemory/names=%d", scale),
		Iterations: gens,
		Extra: map[string]float64{
			"cow-bytes/gen":      cowPerGen,
			"detached-bytes/gen": fullPerGen,
		},
	}
}

func writeReport(out string, data []byte, n int) {
	data = append(data, '\n')
	// Atomic replace: benchdiff may read the previous report while a
	// new run is still writing (and a crashed run must not leave half a
	// JSON report for CI to trip over).
	if _, err := atomicio.WriteFile(out, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", out, n)
}
