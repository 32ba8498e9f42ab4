package daemon_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dnstrust"
	"dnstrust/internal/daemon"
	"dnstrust/internal/fleet"
)

// serveMonitor mounts the read API over m, plus the GET /snapshot pull
// endpoint dnsmonitord adds, so a fleet.HTTPSource can fetch it.
func serveMonitor(t *testing.T, m *dnstrust.Monitor) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	(&daemon.API{Source: m}).Mount(mux)
	mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		etag := fmt.Sprintf(`"%d"`, m.Generation())
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if err := m.WriteSnapshot(w); err != nil {
			t.Error(err)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// keys flattens a decoded JSON answer to its sorted key set; an array of
// objects contributes its first element's keys as "field[].key".
func keys(body map[string]any) []string {
	var out []string
	for k, v := range body {
		out = append(out, k)
		if list, ok := v.([]any); ok && len(list) > 0 {
			if obj, ok := list[0].(map[string]any); ok {
				for kk := range obj {
					out = append(out, k+"[]."+kk)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s: %d with an undecodable body: %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, body
}

// The key sets dnsmonitord and dnsfleetd answered with at the commit
// before the handlers were shared (recorded from the running daemons).
// The shared set must keep every one of them; fleet answers add the
// merged view's facts to the monitor's.
var (
	perGeneration = []string{"generations[].chains", "generations[].generation", "generations[].names", "generations[].servers", "generations[].zones"}
	monitorKeys   = map[string][]string{
		"/summary":     {"affected_names", "direct_mean", "generation", "names", "owned_mean", "servers", "tcb_max", "tcb_mean", "tcb_median", "vulnerable_servers"},
		"/tcb":         {"generation", "name", "tcb", "tcb_size"},
		"/bottleneck":  {"cut", "cut_size", "generation", "name", "safe_in_cut", "vuln_in_cut"},
		"/audit":       {"findings", "findings[].finding", "findings[].kind", "findings[].severity", "generation", "name"},
		"/stats":       {"chains", "generation", "names", "servers", "zones"},
		"/generations": append([]string{"generations", "retained"}, perGeneration...),
		"/watch":       {"crossed_limit", "grew", "min_growth", "since", "to"},
	}
	fleetExtra = map[string][]string{
		"/summary":     {"stale", "stale_shards"},
		"/tcb":         {"shard"},
		"/bottleneck":  {"shard"},
		"/audit":       {"shard"},
		"/stats":       {"stale", "stale_shards", "shards", "shards[].name", "shards[].generation", "shards[].stale", "shards[].fetches", "shards[].failures"},
		"/generations": {"generations[].changed", "generations[].stale", "generations[].stale_shards"},
	}
)

// TestReadAPI drives one table over both kinds of source: a single
// Monitor, and a Coordinator merging three monitors that are themselves
// served by the same handlers and pulled through fleet.HTTPSource.
func TestReadAPI(t *testing.T) {
	ctx := context.Background()
	world, err := dnstrust.NewWorld(dnstrust.Options{Seed: 7, Names: 150})
	if err != nil {
		t.Fatal(err)
	}
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	parts := ring.Assign(world.Corpus)
	var mons []*dnstrust.Monitor
	var shards []fleet.Shard
	for i, name := range ring.Shards() {
		m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{ShardName: name, Retain: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if _, err := m.Add(ctx, parts[i][:len(parts[i])/2]...); err != nil {
			t.Fatal(err)
		}
		mons = append(mons, m)
		shards = append(shards, fleet.Shard{Name: name, Source: &fleet.HTTPSource{URL: serveMonitor(t, m).URL}})
	}
	c, err := fleet.New(shards, fleet.Config{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	fleetMux := http.NewServeMux()
	(&daemon.API{Source: c, Shard: ring.Owner, Stats: func(_ *dnstrust.View, out map[string]any) {
		out["shards"] = c.Status()
	}}).Mount(fleetMux)
	fleetSrv := httptest.NewServer(fleetMux)
	defer fleetSrv.Close()

	// Before the first merge round a fleet has nothing to read from.
	if status, _ := get(t, fleetSrv.URL+"/summary"); status != http.StatusServiceUnavailable {
		t.Errorf("fleet /summary before the first commit: %d, want 503", status)
	}
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// A second generation everywhere, so /diff?from=1&to=2 has two ends.
	for i, m := range mons {
		if _, err := m.Add(ctx, parts[i]...); err != nil {
			t.Fatal(err)
		}
	}
	if fv, err := c.Commit(ctx); err != nil || fv.Generation() != 2 || fv.NumNames() != len(world.Corpus) {
		t.Fatalf("second merge: %v (view %+v)", err, fv)
	}

	known := parts[0][0] // surveyed by monitor s0 and, merged, by the fleet
	for _, src := range []struct {
		name, url string
		extra     map[string][]string
	}{
		{"monitor", serveMonitor(t, mons[0]).URL, nil},
		{"fleet", fleetSrv.URL, fleetExtra},
	} {
		for _, tc := range []struct {
			path   string
			status int
		}{
			{"/summary", 200},
			{"/tcb?name=" + known, 200},
			{"/bottleneck?name=" + known, 200},
			{"/audit?name=" + known, 200},
			{"/stats", 200},
			{"/generations", 200},
			{"/diff?from=1&to=2", 200},
			{"/diff", 200},
			{"/watch?grow=1&limit=5", 200},
			{"/tcb", 400},
			{"/bottleneck", 400},
			{"/audit", 400},
			{"/tcb?name=unknown.invalid", 404},
			{"/bottleneck?name=unknown.invalid", 404},
			{"/audit?name=unknown.invalid", 404},
			{"/diff?from=2&to=1", 400},
			{"/diff?from=x", 400},
			{"/diff?to=x", 400},
			{"/diff?from=1&to=99", 404},
			{"/watch?since=x", 400},
			{"/watch?grow=x", 400},
			{"/watch?limit=x", 400},
			{"/watch?since=99", 400},
			{"/watch?since=-5", 404},
		} {
			status, body := get(t, src.url+tc.path)
			if status != tc.status {
				t.Errorf("%s %s: status %d, want %d (%v)", src.name, tc.path, status, tc.status, body)
				continue
			}
			if status != 200 {
				if _, ok := body["error"]; !ok || len(body) != 1 {
					t.Errorf("%s %s: error answer is %v, want only an \"error\" field", src.name, tc.path, body)
				}
				continue
			}
			endpoint, _, _ := strings.Cut(tc.path, "?")
			if endpoint == "/diff" {
				// The delta omits its empty lists; the envelope always shows.
				for _, k := range []string{"from_gen", "to_gen", "compared"} {
					if _, ok := body[k]; !ok {
						t.Errorf("%s %s: delta lacks %q: %v", src.name, tc.path, k, keys(body))
					}
				}
				continue
			}
			want := append(append([]string(nil), monitorKeys[endpoint]...), src.extra[endpoint]...)
			sort.Strings(want)
			if got := keys(body); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: keys\n got %v\nwant %v", src.name, tc.path, got, want)
			}
		}
	}

	// The merged answers agree with the shard that owns the name.
	_, one := get(t, serveMonitor(t, mons[0]).URL+"/tcb?name="+known)
	_, merged := get(t, fleetSrv.URL+"/tcb?name="+known)
	if !reflect.DeepEqual(one["tcb"], merged["tcb"]) || merged["shard"] != "s0" {
		t.Errorf("fleet /tcb disagrees with the owning shard: shard=%v", merged["shard"])
	}
}
