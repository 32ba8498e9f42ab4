package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dnstrust"
	"dnstrust/internal/fleet"
)

// shardServer stands in for one dnsmonitord: the two endpoints dnsfleetd
// uses, GET /snapshot to pull and POST /add to fan out to.
func shardServer(t *testing.T, m *dnstrust.Monitor) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", fmt.Sprintf(`"%d"`, m.Generation()))
		if err := m.WriteSnapshot(w); err != nil {
			t.Error(err)
		}
	})
	mux.HandleFunc("POST /add", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if _, err := m.Add(r.Context(), strings.Fields(string(body))...); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestAddFansOutAndRemerges pins dnsfleetd's own endpoint: names posted
// to /add reach the shards that own them and show up in the next merged
// generation, and the answer keeps the fields it had before the read
// handlers moved into internal/daemon.
func TestAddFansOutAndRemerges(t *testing.T) {
	ctx := context.Background()
	world, err := dnstrust.NewWorld(dnstrust.Options{Seed: 7, Names: 120})
	if err != nil {
		t.Fatal(err)
	}
	ring := fleet.NewRing([]string{"s0", "s1"}, 0)
	urls := map[string]string{}
	var shards []fleet.Shard
	for _, name := range ring.Shards() {
		m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{ShardName: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		urls[name] = shardServer(t, m).URL
		shards = append(shards, fleet.Shard{Name: name, Source: &fleet.HTTPSource{URL: urls[name]}})
	}
	c, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer((&server{c: c, ring: ring, urls: urls}).mux())
	defer ts.Close()

	batch := world.Corpus[:40]
	resp, err := http.Post(ts.URL+"/add", "text/plain", strings.NewReader(strings.Join(batch, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != 200 {
		t.Fatalf("POST /add: status %d, decode: %v", resp.StatusCode, err)
	}
	got := make([]string, 0, len(body))
	for k := range body {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"added", "failed_shards", "generation", "names_total", "shards", "stale", "stale_shards"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("POST /add keys\n got %v\nwant %v", got, want)
	}
	if body["names_total"] != float64(len(batch)) || body["failed_shards"] != float64(0) {
		t.Errorf("POST /add: %v, want all %d names merged and no failed shard", body, len(batch))
	}
	if v := c.Current(); v.NumNames() != len(batch) || v.Stale() {
		t.Errorf("merged view holds %d names (stale=%v), want %d", v.NumNames(), v.Stale(), len(batch))
	}

	// The read API is mounted beside it, naming the owning shard.
	resp2, err := http.Get(ts.URL + "/tcb?name=" + batch[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tcb map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&tcb); err != nil || tcb["shard"] != ring.Owner(batch[0]) {
		t.Errorf("GET /tcb: %v (decode: %v), want shard %q", tcb, err, ring.Owner(batch[0]))
	}
}
