// Command dnsfleetd fronts a shared-nothing fleet of dnsmonitord
// shards as one logical survey. Each shard crawls its own partition of
// the corpus against its own store; dnsfleetd periodically pulls every
// shard's snapshot (a conditional fetch — an unchanged shard costs one
// request and zero bytes), remaps the shard-local zone/host/chain ids
// into a unioned intern space, and serves the merged view through the
// same read API a single monitor exposes.
//
// Usage:
//
//	dnsfleetd -shards s0=http://h0:8053,s1=http://h1:8053,s2=http://h2:8053
//	          [-addr :8063] [-interval 30s] [-timeout 10s] [-quorum 0]
//	          [-attempts 3] [-backoff 200ms] [-retain 8] [-snapshot fleet.snap]
//
// Endpoints (the read API dnsmonitord serves, over the merged view;
// per-name answers also name the owning shard, and every answer carries
// the view's stale-shard facts):
//
//	GET  /summary            headline statistics of the merged generation
//	GET  /tcb?name=N         trusted computing base of a surveyed name
//	GET  /bottleneck?name=N  §3.2 min-cut analysis of a name
//	GET  /audit?name=N       §5 trust-audit findings for a name
//	GET  /generations        retained merged generations (-retain bounds it)
//	GET  /diff?from=&to=     typed trust delta between two retained
//	                         merged generations
//	GET  /watch?since=&grow=&limit=
//	                         names whose TCB grew since generation `since`
//	GET  /stats              fleet dimensions plus per-shard health
//	POST /add                whitespace-separated names in the body are
//	                         consistent-hashed to their owning shards,
//	                         fanned out to the shards' /add endpoints,
//	                         and folded into a fresh merged generation
//
// Merge semantics: shards are fetched concurrently each round, bounded
// by -timeout. A shard that fails its fetch keeps its last merged
// contribution and the view is marked stale; if fewer than -quorum
// shards answer (0 = majority), the round aborts and the previous view
// keeps serving. A round in which no shard changed reuses the current
// generation. -snapshot persists the merged union snapshot (atomic
// rename) after every new generation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dnstrust/internal/daemon"
	"dnstrust/internal/fleet"
	"dnstrust/internal/view"
)

func main() {
	addr := flag.String("addr", ":8063", "HTTP listen address")
	shardsFlag := flag.String("shards", "", "comma-separated name=url shard list (url is a dnsmonitord base, e.g. s0=http://host:8053)")
	interval := flag.Duration("interval", 30*time.Second, "merge round period")
	timeout := flag.Duration("timeout", 10*time.Second, "per-round deadline: a dead shard costs at most this long")
	quorum := flag.Int("quorum", 0, "shards that must answer for a round to commit (0 = majority)")
	attempts := flag.Int("attempts", 3, "per-shard fetch attempts per round")
	backoff := flag.Duration("backoff", 200*time.Millisecond, "first retry delay, doubling per attempt")
	retain := flag.Int("retain", 8, "merged generations kept live for /generations and /diff")
	snapFile := flag.String("snapshot", "", "persist the merged snapshot here after every new generation")
	flag.Parse()

	urls := map[string]string{}
	var shards []fleet.Shard
	for _, part := range strings.Split(*shardsFlag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			log.Fatalf("dnsfleetd: bad -shards entry %q (want name=url)", part)
		}
		url = strings.TrimRight(url, "/")
		urls[name] = url
		shards = append(shards, fleet.Shard{Name: name, Source: &fleet.HTTPSource{URL: url}})
	}
	if len(shards) == 0 {
		log.Fatal("dnsfleetd: no shards configured (use -shards s0=http://host:8053,...)")
	}

	c, err := fleet.New(shards, fleet.Config{
		Quorum:       *quorum,
		Timeout:      *timeout,
		Attempts:     *attempts,
		Backoff:      *backoff,
		Retain:       *retain,
		SnapshotFile: *snapFile,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("dnsfleetd: %v", err)
	}
	// Bind first: a busy port must fail the boot before the merge.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dnsfleetd: %v", err)
	}
	srv := &server{c: c, ring: fleet.NewRing(c.ShardNames(), 0), urls: urls}

	log.Printf("merging initial fleet state from %d shards...", len(shards))
	start := time.Now()
	fv, err := c.Commit(context.Background())
	if err != nil {
		log.Fatalf("dnsfleetd: initial merge: %v", err)
	}
	log.Printf("generation %d ready: %d names, %d nameservers across %d shards (%.1fs); serving on %s",
		fv.Generation(), fv.NumNames(), fv.Survey().Graph.NumHosts(), len(shards),
		time.Since(start).Seconds(), ln.Addr())
	if fv.Stale() {
		log.Printf("dnsfleetd: serving a partial view: stale shards %v", fv.StaleShards())
	}

	// The merge loop stops before the process exits, so no round is cut
	// off mid-save: Serve's close function cancels it and waits.
	ctx, stop := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(*interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := c.Commit(ctx); err != nil && ctx.Err() == nil {
					log.Printf("dnsfleetd: merge round failed (previous generation still serving): %v", err)
				}
			}
		}
	}()

	os.Exit(daemon.Serve(ln, srv.mux(), func() error {
		stop()
		<-stopped
		return nil
	}))
}

// server carries dnsfleetd's own endpoint: an /add that fans out to the
// owning shards and then re-merges.
type server struct {
	c    *fleet.Coordinator
	ring *fleet.Ring
	urls map[string]string // shard name -> base URL, for /add fan-out
}

// mux mounts the shared read API over the merged view — answers name
// the owning shard, /stats adds every shard's health as of the last
// merge round — and the fan-out /add beside it.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	(&daemon.API{Source: s.c, Shard: s.ring.Owner, Stats: func(_ *view.View, out map[string]any) {
		out["shards"] = s.c.Status()
	}}).Mount(mux)
	mux.HandleFunc("POST /add", s.add)
	return mux
}

// addResult is one shard's answer to a /add fan-out.
type addResult struct {
	shard string
	names int
	err   error
}

// add consistent-hashes the posted names to their owning shards, fans
// the partitions out to the shards' /add endpoints concurrently, and
// re-merges. Names keep flowing to the shard that owns them, so a
// later fan-out of the same name is an incremental no-op on the shard.
func (s *server) add(w http.ResponseWriter, r *http.Request) {
	names, ok := daemon.ReadNames(w, r)
	if !ok {
		return
	}
	parts := s.ring.Assign(names)
	shardNames := s.ring.Shards()
	results := make(chan addResult, len(shardNames))
	launched := 0
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		launched++
		go func(shard string, part []string) {
			results <- addResult{shard: shard, names: len(part), err: postAdd(r.Context(), s.urls[shard], part)}
		}(shardNames[i], p)
	}
	perShard := make(map[string]any, launched)
	failed := 0
	for i := 0; i < launched; i++ {
		res := <-results
		if res.err != nil {
			failed++
			perShard[res.shard] = map[string]any{"names": res.names, "error": res.err.Error()}
			continue
		}
		perShard[res.shard] = map[string]any{"names": res.names}
	}

	fv, err := s.c.Commit(r.Context())
	if err != nil {
		daemon.WriteErr(w, http.StatusInternalServerError, fmt.Errorf("re-merge failed (previous generation still serving): %w", err))
		return
	}
	status := http.StatusOK
	if failed > 0 {
		// Partial fan-out: the merged view reflects what the healthy
		// shards absorbed; the caller can retry the rest.
		status = http.StatusBadGateway
	}
	daemon.WriteJSON(w, status, map[string]any{
		"generation":    fv.Generation(),
		"added":         len(names),
		"names_total":   fv.NumNames(),
		"shards":        perShard,
		"failed_shards": failed,
		"stale":         fv.Stale(),
		"stale_shards":  fv.StaleShards(),
	})
}

// postAdd forwards one shard's partition to its /add endpoint.
func postAdd(ctx context.Context, baseURL string, names []string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/add",
		strings.NewReader(strings.Join(names, "\n")))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s/add: %s: %s", baseURL, resp.Status, strings.TrimSpace(string(snippet)))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
