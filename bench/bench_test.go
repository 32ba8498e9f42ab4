package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// shortRun is a workload shrunk to a 600-name world and a fraction of a
// second of traffic, every check still on. A fifth of the corpus is held
// out on every plan so the few-name batches have something to take.
func shortRun(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	p, err := planByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p.names, p.heldShare, p.trafficShare, p.cycles = 600, 0.2, 1, 2
	if p.side > 0 {
		p.side = 200
	}
	if p.sweep > 300 {
		p.sweep = 300
	}
	return runConfig{
		plan: p, seed: 1, seconds: 0.3, trace: trace, tmpDir: t.TempDir(),
		setups: 1, colds: 1, restores: 1, batch: 10, introRate: 300, verify: 20, replay: 400,
	}
}

func mustRun(t *testing.T, rc runConfig) *runResult {
	t.Helper()
	res, err := runWorkload(context.Background(), rc)
	if err != nil {
		t.Fatalf("%s: %v", rc.plan.name, err)
	}
	if res.ops.failed != 0 || res.ops.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", rc.plan.name, res.ops.failed, res.ops.attempted, res.ops.notes)
	}
	return res
}

// firstTracedResolve is one traced short run of serve_resolve, made once
// and shared by the tests that only read its result.
func firstTracedResolve(t *testing.T) *runResult {
	t.Helper()
	tracedResolveOnce.Do(func() { tracedResolve = mustRun(t, shortRun(t, "serve_resolve", true)) })
	if tracedResolve == nil {
		t.Fatal("the shared traced run of serve_resolve failed in an earlier test")
	}
	return tracedResolve
}

var (
	tracedResolveOnce sync.Once
	tracedResolve     *runResult
)

// TestWorkloadsShort runs every workload end to end at the short size:
// no operation may fail, and every end-to-end metric must come out as a
// positive number — the driver's contract has no room for a zero.
func TestWorkloadsShort(t *testing.T) {
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			res := mustRun(t, shortRun(t, p.name, false))
			for _, d := range endToEnd {
				if v := res.metrics.values[d.Name]; !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != d.Unit || v.Samples < 1 {
					t.Errorf("%s = %+v, want a positive %s with a sample count", d.Name, v, d.Unit)
				}
			}
		})
	}
}

// TestDecomposeCountsEachLayerOnce is the additivity claim of the
// per-layer breakdown as arithmetic: when the direct-call costs explain
// the proxy.ServeDNS spans exactly, the self times sum to the traced
// mean exactly; and a cost added to one layer moves the sum by that cost,
// so no layer is in it twice or not at all. Whether they do explain it
// is a measurement: loadgen.layer_sum_us against loadgen.traced_mean_us
// of a full-size traced run (README.md, baseline), not a tier-1 test.
func TestDecomposeCountsEachLayerOnce(t *testing.T) {
	var lt layerTotals
	lt.count[layerLoadgen], lt.ns[layerLoadgen] = 1000, 1000*100_000 // 100 µs a request
	lt.count[layerProxy], lt.ns[layerProxy] = 1000, 1000*60_000      // 60 µs of it in the handler
	lt.count[layerTransport], lt.ns[layerTransport] = 9000, 1000*30_000
	// Handler: 4 µs proxy + 1 µs lookup (a tenth of them re-misses of
	// 5.5 µs) + half the requests resolving at 50 µs of resolver self
	// time + 30 µs of transport = 60 µs.
	rep := replayed{
		resolvedShare: 0.5, unpackNs: 2000, packNs: 3000,
		hitNs: 500, remissNs: 5500, proxySelfNs: 4000, resolverSelfNs: 50_000,
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	b := decompose(lt, rep, 0.1)
	if !near(b.rootUs, 100) || !near(b.serverSelfUs, 35) || !near(b.wireUs, 5) || !near(b.lookupUs, 1) || !near(b.resolverUs, 25) || !near(b.transportUs, 30) {
		t.Errorf("breakdown %+v", b)
	}
	if !near(b.sumUs(), b.rootUs) {
		t.Errorf("layers sum to %v µs, traced mean is %v µs", b.sumUs(), b.rootUs)
	}
	for name, bump := range map[string]func(*replayed){
		"proxy":    func(r *replayed) { r.proxySelfNs += 1000 },
		"verdict":  func(r *replayed) { r.hitNs += 1000 / 0.9 },
		"resolver": func(r *replayed) { r.resolverSelfNs += 2000 },
	} {
		bumped := rep
		bump(&bumped)
		if got := decompose(lt, bumped, 0.1).sumUs(); !near(got, b.sumUs()+1) {
			t.Errorf("1 µs more in %s moves the sum from %v to %v", name, b.sumUs(), got)
		}
	}
	// The wire codec is carved out of dnsserver's remainder: moving time
	// between the two leaves the sum where it was.
	bumped := rep
	bumped.packNs += 1000
	if got := decompose(lt, bumped, 0.1); !near(got.sumUs(), b.sumUs()) || !near(got.serverSelfUs, 34) {
		t.Errorf("1 µs more of packing: %+v", got)
	}
}

// TestTraceSpansNest checks the wire spans of a traced run for
// structure: every traced request has one root span and exactly one
// proxy.ServeDNS span inside it, every transport.Query span lies inside
// the proxy.ServeDNS span of its request, and the span counts are the
// request and query counts the run reports.
func TestTraceSpansNest(t *testing.T) {
	rc := shortRun(t, "serve_resolve", true)
	rc.spansOut = filepath.Join(t.TempDir(), "spans.jsonl")
	res := mustRun(t, rc)
	f, err := os.Open(rc.spansOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Req     uint64
		Layer   string
		StartNs int64 `json:"start_ns"`
		DurNs   int64 `json:"dur_ns"`
	}
	roots, serves := map[uint64]line{}, map[uint64]line{}
	var queries []line
	one := func(byReq map[uint64]line, l line) {
		if _, dup := byReq[l.Req]; dup {
			t.Fatalf("request %d has two %s spans", l.Req, l.Layer)
		}
		byReq[l.Req] = l
	}
	dec := json.NewDecoder(f)
	for dec.More() {
		var l line
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		switch l.Layer {
		case layerNames[layerLoadgen]:
			one(roots, l)
		case layerNames[layerProxy]:
			one(serves, l)
		case layerNames[layerTransport]:
			queries = append(queries, l)
		default:
			t.Fatalf("span of unknown layer %q", l.Layer)
		}
	}
	inside := func(child, parent line) bool {
		return child.StartNs >= parent.StartNs && child.StartNs+child.DurNs <= parent.StartNs+parent.DurNs
	}
	if len(roots) == 0 || len(roots) != len(serves) {
		t.Fatalf("%d root spans, %d proxy.ServeDNS spans", len(roots), len(serves))
	}
	for req, serve := range serves {
		if root, ok := roots[req]; !ok || !inside(serve, root) {
			t.Fatalf("proxy.ServeDNS span %+v is not inside its root %+v", serve, root)
		}
	}
	for _, q := range queries {
		if serve, ok := serves[q.Req]; !ok || !inside(q, serve) {
			t.Fatalf("transport.Query span %+v is not inside the proxy.ServeDNS span %+v of its request", q, serve)
		}
	}
	if got := res.metrics.values["loadgen.traced_mean_us"].Samples; got != len(roots) {
		t.Errorf("the breakdown is over %d requests, the trace holds %d", got, len(roots))
	}
	if got := res.metrics.values["transport.queries"].Value; got != float64(len(queries)) || got == 0 {
		t.Errorf("transport.queries = %v, the trace holds %d transport.Query spans", got, len(queries))
	}
}

// TestSameSeedSameInputs: the seed fixes the inputs. Two traced runs on
// one seed must agree exactly on every count that does not depend on
// timing, and the name sequence a client draws must repeat.
func TestSameSeedSameInputs(t *testing.T) {
	a := firstTracedResolve(t)
	b := mustRun(t, shortRun(t, "serve_resolve", true))
	for _, name := range []string{"resolver.upstream_per_resolve", "crawler.queries_per_name", "dnswire.reply_bytes"} {
		if va, vb := a.metrics.values[name], b.metrics.values[name]; va != vb || va.Value == 0 {
			t.Errorf("%s: %v then %v on the same seed", name, va, vb)
		}
	}
	for _, key := range []string{"verdict_levels", "corpus", "crawled", "held_out", "steady_names", "oracle_condemned", "crawl_transport_queries"} {
		if !reflect.DeepEqual(a.info[key], b.info[key]) {
			t.Errorf("info[%s]: %v then %v on the same seed", key, a.info[key], b.info[key])
		}
	}

	targets := make([]target, 50)
	for i := range targets {
		targets[i].name = string(rune('a' + i))
	}
	s1, s2, other := drawSequence(7, 0, targets, 200), drawSequence(7, 0, targets, 200), drawSequence(8, 0, targets, 200)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("the same seed and client drew two different name sequences")
	}
	if reflect.DeepEqual(s1, other) || reflect.DeepEqual(s1, drawSequence(7, 1, targets, 200)) {
		t.Error("a different seed or client drew the same name sequence")
	}
}

// TestManifestMatchesRegistry holds BENCHMARK.json to the tables in
// metrics.go and plan.go, so the manifest cannot drift from what a run
// prints.
func TestManifestMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || !reflect.DeepEqual(m.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(plans) {
		t.Fatalf("%d workloads, want %d", len(m.Workloads), len(plans))
	}
	for i, p := range plans {
		if w := m.Workloads[i]; w.Name != p.name || w.Why != p.why || len(p.why) > 200 {
			t.Errorf("workload %d: manifest has %+v, plan has %q / %q (%d chars)", i, w, p.name, p.why, len(p.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := m.EndToEnd[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: manifest has %+v, registry has %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := m.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest has %+v, registry has %+v", i, e, d)
		}
	}
}
