package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dnstrust"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/topology"
	"dnstrust/internal/verdict"
)

// processStart is set first thing in main, so the first set-up of a run
// is timed from process start as a user would time it.
var processStart time.Time

const (
	phaseWindows = 10
	minWarmup    = 50 * time.Millisecond // of a slice of traffic, however short
	traceSpanCap = 3 << 20               // spans a traced run can keep (40 bytes each)
)

// ops counts the operations a run attempted and the ones that failed,
// keeping the first few failures' descriptions for the report.
type ops struct {
	attempted, failed int64
	notes             []string
}

func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(1, format, args...)
	}
}

func (o *ops) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// runResult is what one run reports.
type runResult struct {
	ops     ops
	metrics *metricSet // the end-to-end table for an untraced run, the per-layer table for a traced one
	info    map[string]any
}

// runner carries one run through the phases of a workload.
type runner struct {
	rc      runConfig
	clients int
	res     *runResult

	tr           *tracer
	crawlProbe   *transportProbe
	resolveProbe *transportProbe

	world   *topology.World
	st      *stack
	gen     *loadgen
	crawled []string // names of the initial crawl, seed-shuffled
	held    []string // names kept out of it, seed-shuffled; rounds take from the tail
	swept   []target // the cold-swept names with their expected rcodes
	steady  []target // the subset the plan's mix draws from

	setups, gens []float64 // seconds per set-up, ms per world generation
	crawlRates   []float64 // names per second, one per timed crawl

	// The two traffic phases as they were taken: the longer one a slice a
	// cycle, the other in one stretch.
	steadyParts []phaseResult
	churnParts  []phaseResult
	churnFrom   churnStart
	exposures   []time.Duration
	primary     phaseResult
	secondary   phaseResult

	// A traced run: the direct-call replay's costs and the share of the
	// traced phase's lookups that missed, for decompose.
	replayed        *replayed
	tracedMissShare float64

	// The analyst and fleet path: what its boot phases leave for the
	// cycles. All of it, the last restored stack too, is still live when
	// heap_mb is taken; mons are the monitors beside the serving stack's
	// (side corpus, fleet shards), closed when the run ends.
	an       *analystState
	rs       *restoreState
	fl       *fleetState
	restored *stack
	mons     []*dnstrust.Monitor
}

// runWorkload runs every phase of rc.plan and returns its metrics. An
// error means the benchmark itself could not run; failed operations of
// the system under test are counted in the result instead.
func runWorkload(ctx context.Context, rc runConfig) (*runResult, error) {
	r := &runner{
		rc:      rc,
		clients: min(runtime.NumCPU(), maxClients),
		res:     &runResult{info: map[string]any{}},
	}
	r.res.metrics = newMetricSet(endToEnd)
	if rc.trace {
		r.res.metrics = newMetricSet(perLayer)
		r.tr = newTracer(traceSpanCap)
		r.crawlProbe = &transportProbe{}
		r.resolveProbe = &transportProbe{tr: r.tr}
	}
	err := r.run(ctx)
	if r.gen != nil {
		r.gen.close()
	}
	for _, m := range r.mons {
		err = errors.Join(err, m.Close())
	}
	if r.st != nil {
		err = errors.Join(err, r.st.close(ctx))
	}
	if err != nil {
		return nil, err
	}
	if rc.trace && rc.spansOut != "" {
		if err := r.tr.writeSpans(rc.spansOut); err != nil {
			return nil, err
		}
	}
	return r.res, r.res.metrics.err()
}

// e2e and layer set a metric of the run's kind and ignore the other
// kind, so each phase states all its numbers once and the run keeps the
// ones it is reporting.
func (r *runner) e2e(name string, value float64, samples int) {
	if !r.rc.trace {
		r.res.metrics.set(name, value, samples)
	}
}

func (r *runner) layer(name string, value float64, samples int) {
	if r.rc.trace {
		r.res.metrics.set(name, value, samples)
	}
}

func (r *runner) run(ctx context.Context) error {
	steps := []struct {
		name string
		fn   func(context.Context) error
	}{
		{"set_up", r.setUp}, {"crawl", r.crawl}, {"sweep", r.sweep}, {"verify", r.verifyAnswers},
		{"analyst", r.analyst}, {"restore", r.restore}, {"fleet", r.fleet}, {"cycles", r.cycles},
		{"churn", r.churn}, {"layer_benches", r.layerBenches}, {"finish", r.finish},
	}
	wall := map[string]float64{}
	for _, step := range steps {
		start := time.Now()
		if err := step.fn(ctx); err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
		wall[step.name] = math.Round(time.Since(start).Seconds()*100) / 100
	}
	r.res.info["phase_wall_s"] = wall
	return nil
}

// setUp generates the world, assembles the stack the run works on, and
// splits the corpus by the seed. It is the first of rc.setups set-ups:
// setup_s is their median, process start (or call) to a stack that is
// listening. The crawl is not part of it — it is metered on its own as
// crawl_names_per_s.
func (r *runner) setUp(ctx context.Context) error {
	world, st, err := r.oneSetup(ctx, processStart)
	if err != nil {
		return err
	}
	r.world, r.st = world, st

	// The world is the same on every seed; the seed decides which of its
	// names are crawled at boot and which arrive later, and what the
	// clients ask for.
	p := r.rc.plan
	names := append([]string(nil), r.world.Corpus...)
	rand.New(rand.NewSource(r.rc.seed)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	nHeld := int(math.Round(float64(len(names)) * p.heldShare))
	r.held, r.crawled = names[:nHeld], names[nHeld:]
	r.res.info["corpus"] = len(names)
	r.res.info["crawled"] = len(r.crawled)
	r.res.info["held_out"] = len(r.held)
	return nil
}

// oneSetup is one set-up, timed from start (from the call when start is
// zero): world generation and a stack that is listening.
func (r *runner) oneSetup(ctx context.Context, start time.Time) (*topology.World, *stack, error) {
	if start.IsZero() {
		start = time.Now()
	}
	genStart := time.Now()
	world, err := dnstrust.NewWorld(dnstrust.Options{Seed: worldSeed, Names: r.rc.plan.names})
	if err != nil {
		return nil, nil, err
	}
	r.gens = append(r.gens, ms(time.Since(genStart)))
	st, err := bootStack(ctx, world, stackOptions{
		retain: r.rc.plan.retain, workers: runtime.NumCPU(), listen: true,
		tracer: r.tr, crawlProbe: r.crawlProbe, resolveProbe: r.resolveProbe,
	})
	if err != nil {
		return nil, nil, err
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return world, st, nil
}

// extraSetup repeats the set-up beside the running stack and tears it
// down again.
func (r *runner) extraSetup(ctx context.Context) error {
	settle()
	_, st, err := r.oneSetup(ctx, time.Time{})
	if err != nil {
		return err
	}
	return st.close(ctx)
}

// crawl is the daemon's initial crawl: one Monitor.Add of the boot
// corpus, committing generation 1 into the verdict cache's hook.
func (r *runner) crawl(ctx context.Context) error {
	var before, after runtime.MemStats
	settle() // the set-ups torn down before this one are garbage by now
	runtime.ReadMemStats(&before)
	start := time.Now()
	v, err := r.st.mon.Add(ctx, r.crawled...)
	if err != nil {
		return fmt.Errorf("initial crawl: %w", err)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)

	sv := v.Survey()
	r.res.ops.attempted += int64(len(r.crawled))
	if n := len(sv.Failed); n > 0 {
		r.res.ops.fail(int64(n), "initial crawl: %d names failed to walk", n)
	}
	r.res.ops.check(v.NumNames()+len(sv.Failed) == len(r.crawled),
		"initial crawl: view holds %d names + %d failed, want %d", v.NumNames(), len(sv.Failed), len(r.crawled))

	n := float64(len(r.crawled))
	if len(r.roundCorpus()) == len(r.crawled) {
		r.crawlRates = append(r.crawlRates, n/d.Seconds()) // with a side corpus, its crawls are the samples
	}
	w := sv.Stats.Walker
	r.layer("crawler.queries_per_name", float64(w.Queries)/n, 1)
	r.layer("crawler.memo_hit_ratio", ratio(float64(w.MemoHits), float64(w.MemoHits+w.Queries)), 1)
	r.layer("crawler.shared_walks", float64(w.SharedWalks), 1)
	r.layer("crawler.inline_walks", float64(w.InlineWalks), 1)
	r.layer("crawler.allocs_per_name", float64(after.Mallocs-before.Mallocs)/n, 1)
	r.layer("crawler.failed_names", float64(len(sv.Failed)), 1)
	if r.rc.trace {
		busy := time.Duration(r.crawlProbe.busyNs.Load())
		r.layer("transport.crawl_busy_share", ratio(busy.Seconds(), d.Seconds()*float64(sv.Stats.Workers)), int(r.crawlProbe.queries.Load()))
	}
	r.res.info["crawl_transport_queries"] = w.Queries
	return nil
}

// sweep is the cold sweep: every name of the sweep set asked once over
// the wire against an empty verdict cache, so every query is a miss.
// Afterwards the cache's level per name is the expected rcode for the
// rest of the run, and the sweep's own replies are checked against it.
func (r *runner) sweep(ctx context.Context) error {
	names := r.crawled
	if n := r.rc.plan.sweep; n > 0 && n < len(names) {
		names = names[:n]
	}
	r.swept = make([]target, 0, len(names))
	for _, name := range names {
		t, err := newTarget(name, dnswire.RCodeSuccess)
		if err != nil {
			return err
		}
		r.swept = append(r.swept, t)
	}
	var err error
	sampleCap := int(r.rc.seconds*300000) + 4096
	r.gen, err = newLoadgen(r.st.srv.Addr(), r.clients, r.rc.seed, sampleCap, r.tr)
	if err != nil {
		return err
	}

	before := r.st.cache.Stats()
	settle()
	rcodes, d := r.gen.sweep(r.swept)
	after := r.st.cache.Stats()
	r.e2e("warm_sweep_s", d.Seconds(), len(r.swept))
	r.res.ops.check(after.Misses-before.Misses >= uint64(len(r.swept)),
		"cold sweep: %d misses for %d names — the cache was not cold", after.Misses-before.Misses, len(r.swept))

	levels := map[string]int{}
	for i := range r.swept {
		t := &r.swept[i]
		v := r.st.cache.Lookup(t.name)
		levels[v.Level.String()]++
		if v.Level == verdict.Refuse {
			t.want = dnswire.RCodeRefused
		}
		if rcodes[i] != t.want {
			r.res.ops.fail(1, "cold sweep: %s answered rcode %d, its verdict %s wants %d", t.name, rcodes[i], v.Level, t.want)
		}
		if v.Provisional || v.Generation != r.st.mon.Generation() {
			r.res.ops.fail(1, "cold sweep: verdict of crawled name %s is provisional or stale (gen %d)", t.name, v.Generation)
		}
		switch m := r.rc.plan.mix; {
		case m == mixAll, m == mixRefused && v.Level == verdict.Refuse, m == mixAllowed && v.Level == verdict.Allow:
			r.steady = append(r.steady, *t)
		}
	}
	r.res.info["verdict_levels"] = levels
	r.res.info["steady_names"] = len(r.steady)
	if len(r.steady) == 0 {
		return fmt.Errorf("workload %s: no swept name matches its mix (levels %v)", r.rc.plan.name, levels)
	}
	return nil
}

// verifyAnswers compares, for rc.verify seeded served names, the whole
// answer section that came over the wire with a direct Resolver.Resolve.
func (r *runner) verifyAnswers(ctx context.Context) error {
	c := r.gen.clients[0]
	rng := rand.New(rand.NewSource(r.rc.seed + 7))
	checked := 0
	for _, i := range rng.Perm(len(r.swept)) {
		if checked >= r.rc.verify {
			break
		}
		t := r.swept[i]
		if t.want != dnswire.RCodeSuccess {
			continue
		}
		checked++
		rp := c.exchange(t.pkt)
		if !rp.ok {
			continue // counted by exchange
		}
		got, err := dnswire.Unpack(c.rbuf[:c.rlen])
		if err != nil {
			r.res.ops.check(false, "verify %s: reply does not unpack: %v", t.name, err)
			continue
		}
		want, err := r.st.resolver.Resolve(ctx, t.name, dnswire.TypeA)
		if err != nil {
			r.res.ops.check(false, "verify %s: direct resolve: %v", t.name, err)
			continue
		}
		r.res.ops.check(sameRecords(got.Answers, want.Records),
			"verify %s: wire answers %v differ from direct resolve %v", t.name, got.Answers, want.Records)
	}
	r.res.info["answers_verified"] = checked
	return nil
}

func sameRecords(a, b []dnswire.RR) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// trafficSplit is how the run's measured seconds divide: the steady
// phase (reads only) and the churn phase (never-seen names arrive, get
// crawled in the background and commit while reads continue). qps and
// latency come from the longer of the two, the primary one, which is
// taken a slice a cycle; the other runs in one stretch.
func (r *runner) trafficSplit() (steady, churn time.Duration) {
	p := r.rc.plan
	total := time.Duration(r.rc.seconds * p.trafficShare * float64(time.Second))
	steady = time.Duration(float64(total) * p.steadyShare)
	return steady, total - steady
}

// primarySlices is how many cycles get a slice of the primary phase. A
// traced run takes it whole in the first cycle: it is split there into
// an untraced and a traced part, and its numbers carry no bound that the
// spreading would serve.
func (r *runner) primarySlices() int {
	if r.rc.trace {
		return 1
	}
	return r.rc.plan.cycles
}

// cycles is the body of the run: plan.cycles times round {a slice of the
// primary traffic phase, an analyst round, a fleet round, restores}, with
// the other set-ups and cold analyses placed in between. Interference on
// a shared machine comes in stretches of seconds: a measurement repeated
// back to back sits wholly inside one or wholly outside, and its median
// moves with it from run to run; taken once a cycle the samples span the
// whole run and the median moves only with what lasts longer than a run.
//
// The steady phase wants the verdict cache as the sweep left it, and
// wired as the daemon is every commit to the serving monitor flushes it:
// so steady slices come before any churn, and when churn is the primary
// phase the steady one runs whole before the first cycle.
func (r *runner) cycles(ctx context.Context) error {
	steadyDur, churnDur := r.trafficSplit()
	slices := r.primarySlices()
	churnPrimary := r.rc.plan.churnPrimary()
	if churnPrimary {
		if err := r.steadySlice(ctx, steadyDur, 1); err != nil {
			return err
		}
		if err := r.churnBegin(ctx); err != nil {
			return err
		}
	}
	for k := 0; k < r.rc.plan.cycles; k++ {
		var err error
		switch {
		case k >= slices:
		case churnPrimary:
			err = r.churnSlice(churnDur/time.Duration(slices), slices)
		default:
			err = r.steadySlice(ctx, steadyDur/time.Duration(slices), slices)
		}
		if err != nil {
			return err
		}
		batch := r.takeBatch(k)
		if err := r.analystRound(ctx, k, batch); err != nil {
			return err
		}
		if err := r.fleetRound(ctx, k, batch); err != nil {
			return err
		}
		if err := r.restoreRound(ctx, k); err != nil {
			return err
		}
		if k+1 < r.rc.setups {
			if err := r.extraSetup(ctx); err != nil {
				return err
			}
		}
		if k%2 == 1 && k/2+1 < r.rc.colds {
			if err := r.extraCold(ctx); err != nil {
				return err
			}
		}
	}
	r.e2e("setup_s", median(r.setups), len(r.setups))
	r.layer("topology.generate_ms", median(r.gens), len(r.gens))
	r.e2e("crawl_names_per_s", median(r.crawlRates), len(r.crawlRates))
	r.analystReport()
	r.restoreReport()
	return r.fleetReport(ctx)
}

// sliceWindows is the measuring windows of one of n slices of a phase.
func sliceWindows(n int) int { return max(2, (phaseWindows+n-1)/n) }

// steadySlice is one of slices equal parts of the steady phase.
func (r *runner) steadySlice(ctx context.Context, dur time.Duration, slices int) error {
	settle() // a collection cycle is half a second at 50k names, longer than a slice
	res, err := r.measuredPhase(r.steady, false, dur, sliceWindows(slices), !r.rc.plan.churnPrimary())
	if err != nil {
		return err
	}
	r.steadyParts = append(r.steadyParts, res)
	if r.rc.trace {
		// The direct-call replay wants the cache as the steady phase
		// left it: warm, no commit since the sweep.
		return r.replay(ctx)
	}
	return nil
}

// churnStart is what the serving stack had counted when churn began.
type churnStart struct {
	cache verdict.Stats
	adds  int
}

// churnBegin asks the oracle about the never-seen names and deals them
// out to the clients.
func (r *runner) churnBegin(ctx context.Context) error {
	p := r.rc.plan
	_, churnDur := r.trafficSplit()

	// Names for churn come from the head of the held-out list; the tail
	// is reserved for the rounds when they work on the whole crawl.
	reserve := 0
	if len(r.roundCorpus()) == len(r.crawled) {
		reserve = p.cycles * r.rc.batch
	}
	nChurn := min(len(r.held)-reserve, int(r.rc.introRate*churnDur.Seconds()*1.25)+r.clients)
	if nChurn < 1 {
		return fmt.Errorf("workload %s: %d held-out names leave none for churn after %d for rounds", p.name, len(r.held), reserve)
	}
	heldNames, err := r.oracle(ctx, r.held[:nChurn])
	if err != nil {
		return err
	}
	r.gen.armChurn(heldNames, r.rc.introRate)
	adds, _ := r.st.commits.snapshot()
	r.churnFrom = churnStart{cache: r.st.cache.Stats(), adds: len(adds)}
	return nil
}

// churnSlice is one of slices equal parts of the churn phase, drained:
// every condemned name it introduced has answered REFUSED before the run
// moves on, so no exposure includes time the clients were not asking.
func (r *runner) churnSlice(dur time.Duration, slices int) error {
	settle()
	res, err := r.measuredPhase(r.swept, true, dur, sliceWindows(slices), r.rc.plan.churnPrimary())
	if err != nil {
		return err
	}
	r.churnParts = append(r.churnParts, res)
	r.exposures = r.gen.drain()
	return nil
}

// churn runs the churn phase in one stretch when it is not the primary
// one, and reports the run's traffic.
func (r *runner) churn(ctx context.Context) error {
	p := r.rc.plan
	if !p.churnPrimary() {
		if err := r.churnBegin(ctx); err != nil {
			return err
		}
		_, churnDur := r.trafficSplit()
		if err := r.churnSlice(churnDur, 1); err != nil {
			return err
		}
	}
	cacheBefore, cacheAfter := r.churnFrom.cache, r.st.cache.Stats()
	adds, hooks := r.st.commits.snapshot()

	introduced := 0
	for _, c := range r.gen.clients {
		introduced += c.nextHeld
	}
	r.res.ops.check(len(r.exposures) > 0, "churn: no condemned name was seen to flip to REFUSED (%d names introduced)", introduced)
	r.e2e("refuse_exposure_ms", median(durationsMs(r.exposures)), len(r.exposures))
	r.res.info["churn_introduced"] = introduced
	r.res.info["churn_exposures"] = len(r.exposures)

	r.primary, r.secondary = mergePhases(r.steadyParts), mergePhases(r.churnParts)
	if p.churnPrimary() {
		r.primary, r.secondary = r.secondary, r.primary
	}
	pr := r.primary
	r.e2e("qps", median(pr.windowQPS), len(pr.windowQPS))
	r.e2e("latency_p50_us", pr.p50, pr.samples)
	r.e2e("latency_p90_us", median(pr.windowP90), len(pr.windowP90))
	r.layer("loadgen.samples", float64(pr.samples), 1)
	r.layer("loadgen.latency_p99_us", pr.p99, pr.samples)
	r.layer("loadgen.latency_p999_us", pr.p999, pr.samples)
	r.layer("loadgen.latency_max_us", pr.max, pr.samples)
	r.layer("loadgen.window_qps_spread", spread(pr.windowQPS), len(pr.windowQPS))
	r.layer("loadgen.secondary_qps", median(r.secondary.windowQPS), len(r.secondary.windowQPS))
	r.res.info["samples"] = pr.samples

	// Commit behaviour of the serving stack, over churn and its drains.
	churnAdds := adds[r.churnFrom.adds:]
	commits := float64(len(churnAdds))
	var addMs, perName, batchNames []float64
	for _, a := range churnAdds {
		addMs = append(addMs, ms(a.dur))
		perName = append(perName, ratio(float64(a.dur), float64(a.corpus)))
		batchNames = append(batchNames, float64(a.names))
	}
	r.layer("monitor.add_ms", mean(addMs), len(addMs))
	r.layer("monitor.add_ns_per_corpus_name", mean(perName), len(perName))
	r.layer("monitor.commits", commits, 1)
	r.layer("verdict.add_batches", float64(cacheAfter.AddBatches-cacheBefore.AddBatches), 1)
	r.layer("verdict.names_per_batch", mean(batchNames), len(batchNames))
	r.layer("verdict.evicted_per_commit", ratio(float64(cacheAfter.Evicted-cacheBefore.Evicted), commits), int(commits))
	r.layer("verdict.flushes_per_commit", ratio(float64(cacheAfter.Flushes-cacheBefore.Flushes), commits), int(commits))
	r.layer("verdict.stale_skips", float64(cacheAfter.StaleSkips-cacheBefore.StaleSkips), 1)
	r.layer("verdict.provisional", float64(cacheAfter.Provisional-cacheBefore.Provisional), 1)
	r.layer("verdict.queue_dropped", float64(cacheAfter.Dropped-cacheBefore.Dropped), 1)
	// Every commit of the serving stack — boot crawl, the rounds when
	// they ran on its monitor, churn — went through the one hook the
	// daemon registers: Cache.Advance.
	r.layer("verdict.advance_ms", mean(durationsMs(hooks)), len(hooks))
	r.res.ops.check(cacheAfter.AddFailures == 0, "churn: %d background Add batches failed", cacheAfter.AddFailures)
	if r.rc.trace {
		r.reportBreakdown(decompose(r.tr.totals(), *r.replayed, r.tracedMissShare))
	}
	return nil
}

// measuredPhase runs one phase of traffic. In a traced run the primary
// phase is run in two parts — tracing off, then on — so the per-layer
// numbers come with the overhead tracing itself added; the process-wide
// counters bracket the traced part.
func (r *runner) measuredPhase(targets []target, churn bool, dur time.Duration, windows int, primary bool) (phaseResult, error) {
	ph := phase{targets: targets, churn: churn, warmup: max(dur/10, minWarmup), measured: dur, windows: windows}
	if !r.rc.trace || !primary {
		return r.gen.runPhase(ph)
	}
	ph.measured = dur * 4 / 10
	base, err := r.gen.runPhase(ph)
	if err != nil {
		return base, err
	}

	cacheBefore, proxyBefore := r.st.cache.Stats(), r.st.proxy.Stats()
	queriesBefore := r.resolveProbe.queries.Load()
	peak := watchGoroutines()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.tr.on.Store(true)
	ph.warmup, ph.measured = 0, dur*6/10
	traced, err := r.gen.runPhase(ph)
	r.tr.on.Store(false)
	runtime.ReadMemStats(&after)
	goroutines := peak()
	if err != nil {
		return traced, err
	}
	cacheAfter, proxyAfter := r.st.cache.Stats(), r.st.proxy.Stats()

	served := float64(proxyAfter.Served - proxyBefore.Served)
	r.layer("loadgen.trace_overhead_pct", 100*ratio(traced.meanUs-base.meanUs, base.meanUs), traced.samples)
	r.layer("process.allocs_per_query", ratio(float64(after.Mallocs-before.Mallocs), served), int(served))
	r.layer("process.gc_cycles", float64(after.NumGC-before.NumGC), 1)
	r.layer("process.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	r.layer("process.goroutines_peak", float64(goroutines), 1)
	r.layer("proxy.refused_share", ratio(float64(proxyAfter.Refused-proxyBefore.Refused), served), int(served))
	r.layer("proxy.flagged_share", ratio(float64(proxyAfter.Flagged-proxyBefore.Flagged), served), int(served))
	r.layer("proxy.failed", float64(proxyAfter.Failed-proxyBefore.Failed), 1)
	lookups := float64(cacheAfter.Hits - cacheBefore.Hits + cacheAfter.Misses - cacheBefore.Misses)
	r.layer("verdict.hit_ratio", ratio(float64(cacheAfter.Hits-cacheBefore.Hits), lookups), int(lookups))
	r.tracedMissShare = ratio(float64(cacheAfter.Misses-cacheBefore.Misses), lookups)
	r.layer("transport.queries", float64(r.resolveProbe.queries.Load()-queriesBefore), 1)
	return traced, nil
}

// settle runs a garbage collection so that the timed operation after it
// starts from a collected heap. The operations it precedes are a few
// hundred milliseconds long and the live heap is hundreds of megabytes:
// left alone, whether a collection cycle happens to land inside one is a
// coin toss that decides a quarter of its time, and a median of a few
// rounds inherits the toss. What the operation allocates is still paid
// for; what earlier phases left behind is not charged to it.
func settle() { runtime.GC() }

// watchGoroutines samples the goroutine count every few milliseconds
// until the returned function is called, which stops the sampler, waits
// for it and reports the peak.
func watchGoroutines() (stop func() int) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	peak := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return peak
	}
}

// oracle learns, independently of the stack under test, which of the
// never-seen names the policy condemns: it crawls them on a throwaway
// Monitor over the same world and evaluates each. A name's verdict
// depends only on its own delegation closure and the banners of the
// servers in it, so the rest of the corpus need not be crawled again.
func (r *runner) oracle(ctx context.Context, names []string) ([]heldName, error) {
	m, err := dnstrust.OpenWorld(ctx, r.world, dnstrust.Options{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	v, err := m.Add(ctx, names...)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("oracle: %w", err), m.Close())
	}
	c, err := verdict.NewCache(v.Survey(), verdict.Config{Policy: daemonPolicy})
	if err != nil {
		return nil, errors.Join(fmt.Errorf("oracle: %w", err), m.Close())
	}
	out := make([]heldName, 0, len(names))
	condemned := 0
	for _, name := range names {
		t, err := newTarget(name, dnswire.RCodeSuccess)
		if err != nil {
			return nil, errors.Join(err, c.Close(), m.Close())
		}
		refuse := c.Lookup(name).Level == verdict.Refuse
		if refuse {
			condemned++
		}
		out = append(out, heldName{target: t, condemned: refuse})
	}
	r.res.info["oracle_condemned"] = condemned
	return out, errors.Join(c.Close(), m.Close())
}

// finish takes the heap size with the whole run's state still live,
// then the operation totals.
func (r *runner) finish(ctx context.Context) error {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.e2e("heap_mb", float64(ms.HeapAlloc)/(1<<20), 1)

	attempted, failed, timeouts := r.gen.totals()
	r.res.ops.attempted += attempted
	if failed > 0 {
		r.res.ops.fail(failed, "load generator: %d of %d queries failed (%d timeouts)", failed, attempted, timeouts)
	}
	r.layer("loadgen.timeouts", float64(timeouts), 1)
	if r.tr != nil {
		if _, dropped := r.tr.recorded(); dropped > 0 {
			return fmt.Errorf("trace: %d spans did not fit in %d", dropped, traceSpanCap)
		}
	}
	runtime.KeepAlive(r)
	return nil
}
