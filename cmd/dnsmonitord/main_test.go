package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dnstrust/internal/daemon"
	"dnstrust/internal/verdict"
)

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestOwnEndpoints pins the fields of what dnsmonitord serves beside
// the shared read API — /stats extras, /verdict, /add, POST /snapshot —
// to the key sets the daemon answered with before the handlers moved
// into internal/daemon, and checks the GET /snapshot ETag contract the
// fleet's conditional fetch relies on.
func TestOwnEndpoints(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "session.snap")
	fs := flag.NewFlagSet("dnsmonitord", flag.ContinueOnError)
	sess, policy := daemon.BindSession(fs, true), daemon.BindPolicy(fs)
	if err := fs.Parse([]string{"-names", "80", "-seed", "7", "-snapshot", snap}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := sess.Open(ctx, sess.Options(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := &server{m: m, sess: sess}
	if srv.cache, err = policy.Cache(m, verdict.Config{}); err != nil {
		t.Fatal(err)
	}
	defer srv.cache.Close()
	if _, err := sess.Crawl(ctx, m, t.Logf); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("the initial crawl did not persist %s: %v", snap, err)
	}
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	known := m.World().Corpus[0]
	for _, tc := range []struct {
		method, path, body string
		status             int
		want               []string
	}{
		{"GET", "/stats", "", 200, []string{"build_seconds", "chains", "generation", "memo_hits", "names", "servers",
			"shared_walks", "transport_queries", "verdict_cache", "walk_seconds", "zones"}},
		{"GET", "/verdict?name=" + known, "", 200, []string{"cut", "generation", "level", "name", "provisional",
			"reasons", "safe_in_cut", "tcb_size"}},
		{"GET", "/verdict", "", 400, []string{"error"}},
		{"POST", "/add", known + " nonexistent.invalid", 200, []string{"added", "generation", "names_total", "new_names",
			"new_servers", "seconds", "tcb_sizes", "transport_queries"}},
		{"POST", "/add", " \n", 400, []string{"error"}},
		{"POST", "/snapshot", "", 200, []string{"bytes", "generation", "path", "seconds"}},
		{"GET", "/summary", "", 200, nil}, // the shared API is mounted beside them
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d (decode: %v), want %d", tc.method, tc.path, resp.StatusCode, err, tc.status)
			continue
		}
		if got := keysOf(body); tc.want != nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %s: keys\n got %v\nwant %v", tc.method, tc.path, got, tc.want)
		}
		if vc, ok := body["verdict_cache"].(map[string]any); tc.path == "/stats" && (!ok || len(vc) != 10) {
			t.Errorf("/stats verdict_cache = %v, want the ten cache counters", body["verdict_cache"])
		}
	}

	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || etag == "" {
		t.Fatalf("GET /snapshot: status %d, ETag %q", resp.StatusCode, etag)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional GET /snapshot with the current ETag: %d, want 304", resp.StatusCode)
	}
}
