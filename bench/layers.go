package main

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"path/filepath"
	"runtime"
	"time"

	"dnstrust/internal/analysis"
	"dnstrust/internal/core"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

// timeLoop calls fn(0..n-1) back to back and returns the mean time and
// the mean number of heap allocations of one call. The allocation count
// is process-wide, so it is only meaningful while nothing else runs —
// which is when the traced run calls it: between phases, listener idle.
func timeLoop(n int, fn func(i int)) (nsPer, allocsPer float64) {
	if n == 0 {
		return 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// capturedQuery is one transport query a direct Resolve issued.
type capturedQuery struct {
	server netip.Addr
	name   string
	qtype  dnswire.Type
	class  dnswire.Class
}

// captureSource remembers every query that passes through it, so the
// replay can re-issue exactly those against the bare transport.
type captureSource struct {
	transport.Source
	queries []capturedQuery
}

func (s *captureSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	s.queries = append(s.queries, capturedQuery{server, name, qtype, class})
	return s.Source.Query(ctx, server, name, qtype, class)
}

// replay is part (B) of a traced run: the primary phase's name sequence
// (client 0's seeded draws) replayed as direct calls, one layer at a
// time, so each layer's cost per call and allocations per call are known
// on their own. Together with the wire spans of part (A) they decompose
// the traced mean latency:
//
//	dnsserver.self = root − proxy.ServeDNS − dnswire.unpack − dnswire.pack
//	proxy.self     = ServeDNS(direct, condemned names) − verdict lookup
//	resolver.self  = Resolve(direct) − upstream per resolve × transport.Query(direct)
//
// dnsserver.self is the remainder on the wire side — socket loop,
// kernel UDP, a goroutine per packet, and the generator's own two
// syscalls — because the product is not instrumented inside. The other
// terms are measured independently of the spans, so that their sum
// matching the traced mean (loadgen.layer_sum_us against
// loadgen.traced_mean_us) is evidence, not arithmetic.
func (r *runner) replay(ctx context.Context) error {
	targets := r.steady
	if r.rc.plan.churnPrimary() {
		targets = r.swept
	}
	n := r.rc.replay
	seq := drawSequence(r.rc.seed, 0, targets, n)
	resolved := 0
	for _, t := range seq {
		if t.want != dnswire.RCodeRefused {
			resolved++
		}
	}
	resolvedShare := float64(resolved) / float64(n)

	reqs := make([]*dnswire.Message, n)
	unpackNs, unpackAllocs := timeLoop(n, func(i int) { reqs[i], _ = dnswire.Unpack(seq[i].pkt) })
	for i, req := range reqs {
		if req == nil {
			return fmt.Errorf("replay: query for %s does not unpack", seq[i].name)
		}
	}

	statsBefore := r.st.cache.Stats()
	hitNs, hitAllocs := timeLoop(n, func(i int) { r.st.cache.Lookup(seq[i].name) })
	if st := r.st.cache.Stats(); st.Misses != statsBefore.Misses {
		r.res.ops.fail(1, "replay: %d of %d lookups missed a cache the steady phase left warm", st.Misses-statsBefore.Misses, n)
	}

	resps := make([]*dnswire.Message, n)
	serveNs, serveAllocs := timeLoop(n, func(i int) { resps[i] = r.st.proxy.ServeDNS(ctx, reqs[i]) })
	for i, resp := range resps {
		r.res.ops.check(resp != nil && resp.RCode == seq[i].want && (seq[i].want != dnswire.RCodeSuccess || len(resp.Answers) > 0),
			"replay: direct ServeDNS(%s) = %v, want rcode %d", seq[i].name, resp, seq[i].want)
	}

	// The proxy's own work is what ServeDNS costs beyond the lookup on
	// the path with nothing else in it: a condemned name (reply
	// skeleton, counters, the refuse log line the daemon's logger
	// formats). Every workload has swept some.
	var condemned []*dnswire.Message
	for i := 0; i < len(r.swept) && len(condemned) < 2000; i++ {
		if r.swept[i].want == dnswire.RCodeRefused {
			req, err := dnswire.Unpack(r.swept[i].pkt)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			condemned = append(condemned, req)
		}
	}
	refuseNs, _ := timeLoop(len(condemned), func(i int) { r.st.proxy.ServeDNS(ctx, condemned[i]) })
	proxySelfNs := refuseNs - hitNs

	var replyBytes int
	packNs, packAllocs := timeLoop(n, func(i int) {
		out, _ := resps[i].Pack()
		replyBytes += len(out)
	})

	// Resolve is timed on the served names of the sequence; a workload
	// whose mix never resolves still reports what a resolve costs, on
	// allowed names of the sweep, weighted by a resolved share of zero.
	var names []string
	for _, t := range seq {
		if t.want != dnswire.RCodeRefused && len(names) < n/2 {
			names = append(names, t.name)
		}
	}
	for i := 0; len(names) < min(n/10, 1000) && i < len(r.swept); i++ {
		if r.swept[i].want == dnswire.RCodeSuccess {
			names = append(names, r.swept[i].name)
		}
	}
	failures := 0
	queriesBefore := r.resolveProbe.queries.Load()
	resolveNs, resolveAllocs := timeLoop(len(names), func(i int) {
		if _, err := r.st.resolver.Resolve(ctx, names[i], dnswire.TypeA); err != nil {
			failures++
		}
	})
	upstream := ratio(float64(r.resolveProbe.queries.Load()-queriesBefore), float64(len(names)))

	// The transport alone: the queries a tenth of those resolves issue,
	// captured once, then re-issued against the bare in-memory source.
	capture := &captureSource{Source: r.world.Registry.Source()}
	direct, err := resolver.New(capture, resolver.Config{Roots: r.world.Registry.RootServers()})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for _, name := range names[:(len(names)+9)/10] {
		direct.Resolve(ctx, name, dnswire.TypeA)
	}
	queryNs, queryAllocs := timeLoop(len(capture.queries), func(i int) {
		q := capture.queries[i]
		capture.Source.Query(ctx, q.server, q.name, q.qtype, q.class)
	})

	// A verdict miss, twice over a cache whose entries expire at once:
	// the first pass finds the chain memo cold (what the cold sweep
	// pays), the second finds it warm (what a query pays after a commit
	// flushed or evicted its entry).
	sample := r.swept[:min(len(r.swept), 2000)]
	expiring, err := verdict.NewCache(r.st.mon.At().Survey(), verdict.Config{Policy: daemonPolicy, TTL: time.Nanosecond})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	missNs, _ := timeLoop(len(sample), func(i int) { expiring.Lookup(sample[i].name) })
	remissNs, _ := timeLoop(len(sample), func(i int) { expiring.Lookup(sample[i].name) })
	if err := expiring.Close(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	r.replayed = &replayed{
		resolvedShare: resolvedShare,
		unpackNs:      unpackNs, packNs: packNs, hitNs: hitNs, remissNs: remissNs,
		proxySelfNs:    proxySelfNs,
		resolverSelfNs: resolveNs - upstream*queryNs,
	}
	r.layer("verdict.lookup_miss_us", missNs/1e3, len(sample))
	r.layer("verdict.lookup_remiss_us", remissNs/1e3, len(sample))

	r.layer("dnswire.unpack_ns", unpackNs, n)
	r.layer("dnswire.unpack_allocs", unpackAllocs, n)
	r.layer("dnswire.pack_ns", packNs, n)
	r.layer("dnswire.pack_allocs", packAllocs, n)
	r.layer("dnswire.reply_bytes", float64(replyBytes)/float64(n), n)
	r.layer("verdict.lookup_hit_ns", hitNs, n)
	r.layer("verdict.lookup_hit_allocs", hitAllocs, n)
	r.layer("proxy.serve_ns", serveNs, n)
	r.layer("proxy.serve_allocs", serveAllocs, n)
	r.layer("proxy.self_ns", r.replayed.proxySelfNs, n)
	r.layer("resolver.resolve_us", resolveNs/1e3, len(names))
	r.layer("resolver.resolve_allocs", resolveAllocs, len(names))
	r.layer("resolver.upstream_per_resolve", upstream, len(names))
	r.layer("resolver.self_us", r.replayed.resolverSelfNs/1e3, len(names))
	r.layer("resolver.failures", float64(failures), len(names))
	r.layer("transport.query_ns", queryNs, len(capture.queries))
	r.layer("transport.query_allocs", queryAllocs, len(capture.queries))
	return nil
}

// replayed is what the direct-call replay hands to decompose.
type replayed struct {
	resolvedShare               float64
	unpackNs, packNs            float64
	hitNs, remissNs             float64
	proxySelfNs, resolverSelfNs float64
}

// breakdown is the mean latency of a traced phase split into per-layer
// self times, in µs per request.
type breakdown struct {
	roots, transports                           int64 // span counts
	rootUs                                      float64
	serverSelfUs, wireUs, proxySelfUs, lookupUs float64
	resolverUs, transportUs                     float64
}

// sumUs adds the self times up; each layer is in it once.
func (b breakdown) sumUs() float64 {
	return b.serverSelfUs + b.wireUs + b.proxySelfUs + b.lookupUs + b.resolverUs + b.transportUs
}

// decompose joins the wire spans (A) with the direct-call costs (B).
// missShare is the share of the traced phase's lookups that missed
// (after a commit flushed or evicted them): such a lookup costs a
// re-evaluation with the chain memo warm, not a hit. The wire codec runs
// inside dnsserver but outside the handler, so it is carved out of the
// server's remainder; what the handler does is measured by (B) alone, so
// the sum returns to the traced mean only if (B) explains the
// proxy.ServeDNS spans.
func decompose(lt layerTotals, b replayed, missShare float64) breakdown {
	roots := float64(lt.count[layerLoadgen])
	out := breakdown{
		roots: lt.count[layerLoadgen], transports: lt.count[layerTransport],
		rootUs:      ratio(float64(lt.ns[layerLoadgen]), roots) / 1e3,
		wireUs:      (b.unpackNs + b.packNs) / 1e3,
		proxySelfUs: b.proxySelfNs / 1e3,
		lookupUs:    ((1-missShare)*b.hitNs + missShare*b.remissNs) / 1e3,
		resolverUs:  b.resolvedShare * b.resolverSelfNs / 1e3,
		transportUs: ratio(float64(lt.ns[layerTransport]), roots) / 1e3,
	}
	serveUs := ratio(float64(lt.ns[layerProxy]), roots) / 1e3
	out.serverSelfUs = out.rootUs - serveUs - out.wireUs
	return out
}

func (r *runner) reportBreakdown(b breakdown) {
	r.layer("loadgen.traced_mean_us", b.rootUs, int(b.roots))
	r.layer("loadgen.layer_sum_us", b.sumUs(), int(b.roots))
	r.layer("dnsserver.self_us", b.serverSelfUs, int(b.roots))
	r.layer("dnsserver.share", ratio(b.serverSelfUs, b.rootUs), int(b.roots))
	r.layer("resolver.share", ratio(b.resolverUs, b.rootUs), int(b.roots))
	r.layer("transport.share", ratio(b.transportUs, b.rootUs), int(b.transports))
}

// layerBenches are the single-layer measurements of a traced run that
// need no traffic: verdict misses on cold caches, per-name analyses,
// the snapshot codec, and the core builder at this corpus size.
func (r *runner) layerBenches(ctx context.Context) error {
	if !r.rc.trace {
		return nil
	}
	view := r.st.mon.At()
	sv := view.Survey()
	sample := r.swept[:min(len(r.swept), 2000)]

	// Evaluate alone with the chain memo empty, so the first name on
	// each chain pays its min-cut: verdict.lookup_miss_us minus this is
	// the cache's own share of a miss (single-flight, COW publish).
	memo := analysis.NewChainMemo()
	evalNs, _ := timeLoop(len(sample), func(i int) { verdict.Evaluate(sv, memo, daemonPolicy, sample[i].name) })
	r.layer("analysis.evaluate_cold_us", evalNs/1e3, len(sample))

	tcbNs, _ := timeLoop(len(sample), func(i int) { view.TCB(sample[i].name) })
	cutNs, _ := timeLoop(len(sample), func(i int) { view.Bottleneck(sample[i].name) })
	r.layer("analysis.tcb_us", tcbNs/1e3, len(sample))
	r.layer("analysis.bottleneck_us", cutNs/1e3, len(sample))

	var buf bytes.Buffer
	start := time.Now()
	if err := r.st.mon.WriteSnapshot(&buf); err != nil {
		return fmt.Errorf("snapshot encode: %w", err)
	}
	r.layer("snapshot.encode_ms", ms(time.Since(start)), 1)
	start = time.Now()
	if _, err := snapshot.Read(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("snapshot read: %w", err)
	}
	r.layer("snapshot.read_ms", ms(time.Since(start)), 1)
	path := filepath.Join(r.rc.tmpDir, fmt.Sprintf("%s-%d.snap", r.rc.plan.name, r.rc.seed))
	start = time.Now()
	f, err := snapshot.Open(path)
	if err != nil {
		return fmt.Errorf("snapshot open: %w", err)
	}
	r.layer("snapshot.open_ms", ms(time.Since(start)), 1)
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapshot close: %w", err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start = time.Now()
	g, finish := core.SyntheticBuild(r.rc.plan.names)
	build := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := float64(r.rc.plan.names)
	r.layer("core.build_ns_per_name", float64(build)/n, r.rc.plan.names)
	r.layer("core.finish_ms", ms(finish), 1)
	r.layer("core.heap_bytes_per_name", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/n, r.rc.plan.names)
	runtime.KeepAlive(g)
	return nil
}
