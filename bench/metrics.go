package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric the benchmark reports. The two tables
// below are the single source BENCHMARK.json is checked against
// (TestManifestMatchesRegistry): a metric exists once, here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the baseline median
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them from an untraced run; README.md gives the
// definition, scale and confounders of each. The bounds are the issue's
// max(10%, 2 × the widest quartile spread over ten seeds), capped at the
// contract's 25%: README.md ("Bounds") has the spreads, which put every
// timing metric at the cap on this kind of machine.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"warm_sweep_s", "s", "lower", 0.25},
	{"refuse_exposure_ms", "ms", "lower", 0.25},
	{"crawl_names_per_s", "1/s", "higher", 0.25},
	{"analyze_cold_s", "s", "lower", 0.25},
	{"analyze_warm_ms", "ms", "lower", 0.25},
	{"commit_ms", "ms", "lower", 0.25},
	{"restore_first_answer_ms", "ms", "lower", 0.25},
	{"fleet_add_visible_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer numbers of a traced run; the prefix is
// the package the number belongs to. They carry no bound.
var perLayer = []metricDef{
	{"loadgen.samples", "count", "higher", 0},
	{"loadgen.latency_p99_us", "us", "lower", 0},
	{"loadgen.latency_p999_us", "us", "lower", 0},
	{"loadgen.latency_max_us", "us", "lower", 0},
	{"loadgen.window_qps_spread", "ratio", "lower", 0},
	{"loadgen.timeouts", "count", "lower", 0},
	{"loadgen.secondary_qps", "1/s", "higher", 0},
	{"loadgen.trace_overhead_pct", "%", "lower", 0},
	{"loadgen.traced_mean_us", "us", "lower", 0},
	{"loadgen.layer_sum_us", "us", "lower", 0},

	{"process.allocs_per_query", "count", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.goroutines_peak", "count", "lower", 0},

	{"dnsserver.self_us", "us", "lower", 0},
	{"dnsserver.share", "ratio", "lower", 0},

	{"dnswire.unpack_ns", "ns", "lower", 0},
	{"dnswire.pack_ns", "ns", "lower", 0},
	{"dnswire.unpack_allocs", "count", "lower", 0},
	{"dnswire.pack_allocs", "count", "lower", 0},
	{"dnswire.reply_bytes", "B", "lower", 0},

	{"proxy.serve_ns", "ns", "lower", 0},
	{"proxy.self_ns", "ns", "lower", 0},
	{"proxy.serve_allocs", "count", "lower", 0},
	{"proxy.refused_share", "ratio", "higher", 0},
	{"proxy.flagged_share", "ratio", "lower", 0},
	{"proxy.failed", "count", "lower", 0},

	{"verdict.lookup_hit_ns", "ns", "lower", 0},
	{"verdict.lookup_hit_allocs", "count", "lower", 0},
	{"verdict.lookup_miss_us", "us", "lower", 0},
	{"verdict.lookup_remiss_us", "us", "lower", 0},
	{"verdict.hit_ratio", "ratio", "higher", 0},
	{"verdict.advance_ms", "ms", "lower", 0},
	{"verdict.evicted_per_commit", "count", "lower", 0},
	{"verdict.flushes_per_commit", "ratio", "lower", 0},
	{"verdict.stale_skips", "count", "lower", 0},
	{"verdict.provisional", "count", "lower", 0},
	{"verdict.add_batches", "count", "lower", 0},
	{"verdict.names_per_batch", "count", "higher", 0},
	{"verdict.queue_dropped", "count", "lower", 0},

	{"resolver.resolve_us", "us", "lower", 0},
	{"resolver.self_us", "us", "lower", 0},
	{"resolver.share", "ratio", "lower", 0},
	{"resolver.upstream_per_resolve", "count", "lower", 0},
	{"resolver.resolve_allocs", "count", "lower", 0},
	{"resolver.failures", "count", "lower", 0},

	{"transport.query_ns", "ns", "lower", 0},
	{"transport.queries", "count", "lower", 0},
	{"transport.query_allocs", "count", "lower", 0},
	{"transport.share", "ratio", "lower", 0},
	{"transport.crawl_busy_share", "ratio", "lower", 0},

	{"monitor.add_ms", "ms", "lower", 0},
	{"monitor.add_ns_per_corpus_name", "ns", "lower", 0},
	{"monitor.commits", "count", "lower", 0},

	{"crawler.queries_per_name", "count", "lower", 0},
	{"crawler.memo_hit_ratio", "ratio", "higher", 0},
	{"crawler.shared_walks", "count", "lower", 0},
	{"crawler.inline_walks", "count", "lower", 0},
	{"crawler.allocs_per_name", "count", "lower", 0},
	{"crawler.failed_names", "count", "lower", 0},

	{"core.build_ns_per_name", "ns", "lower", 0},
	{"core.finish_ms", "ms", "lower", 0},
	{"core.heap_bytes_per_name", "B", "lower", 0},

	{"analysis.summary_cold_ms", "ms", "lower", 0},
	{"analysis.bottlenecks_cold_ms", "ms", "lower", 0},
	{"analysis.summary_warm_ms", "ms", "lower", 0},
	{"analysis.bottlenecks_warm_ms", "ms", "lower", 0},
	{"analysis.tcb_us", "us", "lower", 0},
	{"analysis.bottleneck_us", "us", "lower", 0},
	{"analysis.evaluate_cold_us", "us", "lower", 0},

	{"delta.between_us", "us", "lower", 0},
	{"delta.names_changed", "count", "lower", 0},

	{"snapshot.encode_ms", "ms", "lower", 0},
	{"snapshot.save_ms", "ms", "lower", 0},
	{"snapshot.bytes_per_name", "B", "lower", 0},
	{"snapshot.read_ms", "ms", "lower", 0},
	{"snapshot.open_ms", "ms", "lower", 0},

	{"fleet.fetch_decode_ms", "ms", "lower", 0},
	{"fleet.commit_ms", "ms", "lower", 0},
	{"fleet.merge_ns_per_name", "ns", "lower", 0},
	{"fleet.shard_add_ms", "ms", "lower", 0},
	{"fleet.first_commit_ms", "ms", "lower", 0},
	{"fleet.stale_rounds", "count", "lower", 0},

	{"topology.generate_ms", "ms", "lower", 0},
}

// metricValue is one reported number. Samples is how many measurements
// the value summarises (1 for a single timed pass).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects the values of one run against one of the tables
// above. Setting a name the table lacks, or finishing with a name unset,
// is a bug in the benchmark and is reported as one.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
	errs   []string
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: make(map[string]metricDef, len(defs)), values: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		ms.defs[d.Name] = d
	}
	return ms
}

func (ms *metricSet) set(name string, value float64, samples int) {
	d, ok := ms.defs[name]
	if !ok {
		ms.errs = append(ms.errs, fmt.Sprintf("metric %q is not declared", name))
		return
	}
	ms.values[name] = metricValue{Value: value, Unit: d.Unit, Samples: samples}
}

// err reports undeclared sets and declared metrics left unset.
func (ms *metricSet) err() error {
	errs := append([]string(nil), ms.errs...)
	for name := range ms.defs {
		if _, ok := ms.values[name]; !ok {
			errs = append(errs, fmt.Sprintf("metric %q was never set", name))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("bench: %d metric errors: %v", len(errs), errs)
}

// ratio is a/b with 0 for an empty denominator, the convention every
// per-layer share and per-operation mean below uses.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
