// Command dnsmonitord serves a monitored survey over HTTP/JSON — the
// paper's transitive-trust analyses as a continuously extendable
// service instead of a one-shot batch.
//
// Usage:
//
//	dnsmonitord [-addr :8053] [-names 20000] [-seed 1] [-workers 0] [-retain 8]
//	            [-memo-file crawl.qlog] [-snapshot session.snap]
//	            [-record crawl.qlog] [-replay crawl.qlog] [-live]
//	            [-shard-name s0]
//
// On startup the daemon generates the synthetic world, crawls the
// initial corpus, and then serves:
//
//	GET  /summary            headline statistics of the latest generation
//	GET  /tcb?name=N         trusted computing base of a surveyed name
//	GET  /bottleneck?name=N  §3.2 min-cut analysis of a name
//	GET  /audit?name=N       §5 trust-audit findings for a name
//	GET  /verdict?name=N     serving-path policy verdict (allow / flag /
//	                         refuse) from the same verdict cache
//	                         dnstrustd consults per query; a never-seen
//	                         name answers provisionally and is queued
//	                         for a background crawl
//	GET  /stats              crawl-engine counters and generation
//	GET  /generations        the retained timeline (-retain bounds it)
//	GET  /diff?from=&to=     typed trust delta between two retained
//	                         generations (TCB drift, min-cut movement,
//	                         zone/chain churn)
//	GET  /watch?since=&grow=&limit=
//	                         names whose TCB grew by >= grow hosts (or
//	                         past limit total) since generation `since`
//	GET  /snapshot           stream the session snapshot (the fleet pull
//	                         path); the generation doubles as the ETag,
//	                         so If-None-Match answers 304 when nothing
//	                         committed since the caller's last fetch
//	POST /add                whitespace-separated names in the body are
//	                         added incrementally; responds with the delta
//	POST /snapshot           save the session snapshot now; responds with
//	                         {generation, bytes, seconds}
//
// -shard-name labels the monitor as one shard of a fleet: snapshots
// (files and GET /snapshot exports alike) carry the label, and a
// dnsfleetd coordinator refuses to merge a shard that answers under
// the wrong name.
//
// -snapshot makes the session durable: the epoch store is saved to the
// file atomically after the initial crawl, after every committed /add,
// and on SIGTERM; at the next boot the daemon restores the last
// committed generation from it in load time — skipping the initial
// crawl entirely, with zero transport queries — and keeps extending it.
// A kill at any point, mid-save included, leaves the previous complete
// snapshot in place, never a loadable partial one.
//
// Reads are served from immutable views and never block: while an /add
// crawl is in flight, queries answer from the previous generation.
// Repeated reads are near-free — min-cut and TCB results are memoized
// per delegation chain across generations, retained generations share
// the survey's storage copy-on-write, and generation diffs examine only
// the chains that actually changed.
//
// The daemon's Internet is a transport-source composition, like
// dnssurvey's: -live crawls over real loopback sockets, -record keeps a
// byte-stable query log of every exchange (saved after the initial
// crawl and after every /add), and -replay serves the whole session —
// /add included — from a recorded log, so the daemon can monitor a
// snapshot of the past. -memo-file names a query log replayed with
// fallthrough: questions it answered are not asked again, and it is
// saved back wherever the -record log is, and on SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"dnstrust"
	"dnstrust/internal/daemon"
	"dnstrust/internal/verdict"
	"dnstrust/internal/view"
)

func main() {
	addr := flag.String("addr", ":8053", "HTTP listen address")
	retain := flag.Int("retain", 8, "committed generations kept live for /generations, /diff, /watch")
	shardName := flag.String("shard-name", "", "label this monitor as one fleet shard: snapshots and GET /snapshot exports carry the name")
	sess := daemon.BindSession(flag.CommandLine, true)
	policy := daemon.BindPolicy(flag.CommandLine)
	flag.Parse()

	// Bind first: a busy port must fail the boot before the crawl, not
	// after it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dnsmonitord: %v", err)
	}
	ctx := context.Background()
	start := time.Now()
	opts := sess.Options()
	opts.Retain, opts.ShardName = *retain, *shardName
	m, err := sess.Open(ctx, opts, log.Printf)
	if err != nil {
		log.Fatalf("dnsmonitord: %v", err)
	}
	srv := &server{m: m, sess: sess}
	// The verdict cache is the same structure dnstrustd consults on its
	// serving hot path; here it backs /verdict. Commits advance it in
	// place (evicting only changed names), and /verdict on a never-seen
	// name queues a background crawl whose commit is persisted exactly
	// like a /add.
	srv.cache, err = policy.Cache(m, verdict.Config{
		Add: func(ctx context.Context, names ...string) error {
			if _, err := m.Add(ctx, names...); err != nil {
				return err
			}
			srv.persist()
			return nil
		},
	})
	if err != nil {
		log.Fatalf("dnsmonitord: %v", err)
	}
	v, err := sess.Crawl(ctx, m, log.Printf)
	if err != nil {
		log.Fatalf("dnsmonitord: %v", err)
	}
	log.Printf("generation %d ready: %d names, %d nameservers (%.1fs); serving on %s",
		v.Generation(), v.NumNames(), v.Survey().Graph.NumHosts(), time.Since(start).Seconds(), ln.Addr())

	// The atomic saves inside Monitor.Close and SaveRecording mean a kill
	// mid-shutdown still leaves the previous files loadable.
	os.Exit(daemon.Serve(ln, srv.mux(), func() error {
		srv.cache.Close()
		return errors.Join(m.Close(), sess.SaveRecording(log.Printf))
	}))
}

// server carries what dnsmonitord adds to the shared read API: the
// verdict cache, /add, and the snapshot endpoints. /add serializes
// through the Monitor itself.
type server struct {
	m    *dnstrust.Monitor
	sess *daemon.Session

	// cache serves /verdict; Monitor.OnCommit keeps it advancing.
	cache *verdict.Cache

	// saveMu serializes saves so concurrent /add and /snapshot handlers
	// never race on the same temp file.
	saveMu sync.Mutex
}

// mux mounts the shared read API over the monitor and the daemon's own
// endpoints beside it.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	(&daemon.API{Source: s.m, Stats: s.stats}).Mount(mux)
	mux.HandleFunc("GET /verdict", s.verdict)
	mux.HandleFunc("POST /add", s.add)
	mux.HandleFunc("POST /snapshot", s.snapshot)
	mux.HandleFunc("GET /snapshot", s.snapshotGet)
	return mux
}

// persist saves the query recording and the session snapshot,
// whichever are configured, after a committed crawl.
func (s *server) persist() {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	//lint:allow locksafety saveMu exists solely to serialize writers to one file; no reader ever takes it
	s.sess.Persist(s.m, log.Printf)
}

// verdict serves the per-name policy verdict from the shared cache. A
// hit costs one map read under a shard's read lock; a never-seen name
// answers provisionally (flagged) and queues a background crawl — poll
// again after it commits for the real verdict.
func (s *server) verdict(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		daemon.WriteErr(w, http.StatusBadRequest, errors.New("missing ?name= parameter"))
		return
	}
	v := s.cache.Lookup(name)
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"name":        v.Name,
		"level":       v.Level.String(),
		"reasons":     v.Reasons.Strings(),
		"generation":  v.Generation,
		"tcb_size":    v.TCBSize,
		"cut":         v.Cut,
		"safe_in_cut": v.SafeInCut,
		"provisional": v.Provisional,
	})
}

// stats adds the crawl-engine and verdict-cache counters to /stats.
func (s *server) stats(v *view.View, out map[string]any) {
	st := v.Survey().Stats
	cs := s.cache.Stats()
	out["transport_queries"] = s.m.Queries()
	out["memo_hits"] = st.Walker.MemoHits
	out["shared_walks"] = st.Walker.SharedWalks
	out["walk_seconds"] = st.WalkTime.Seconds()
	out["build_seconds"] = st.BuildTime.Seconds()
	out["verdict_cache"] = map[string]any{
		"size":        cs.Size,
		"generation":  cs.Generation,
		"hits":        cs.Hits,
		"misses":      cs.Misses,
		"provisional": cs.Provisional,
		"evicted":     cs.Evicted,
		"flushes":     cs.Flushes,
		"stale_skips": cs.StaleSkips,
		"enqueued":    cs.Enqueued,
		"dropped":     cs.Dropped,
	}
}

func (s *server) add(w http.ResponseWriter, r *http.Request) {
	names, ok := daemon.ReadNames(w, r)
	if !ok {
		return
	}
	prev := s.m.At()
	prevQueries := s.m.Queries()
	start := time.Now()
	v, err := s.m.Add(r.Context(), names...)
	if err != nil {
		daemon.WriteErr(w, http.StatusInternalServerError, fmt.Errorf("add failed (previous generation still serving): %w", err))
		return
	}
	s.persist()
	perName := make(map[string]any, len(names))
	for _, n := range names {
		if sz := v.Survey().Graph.TCBSize(n); sz >= 0 {
			perName[n] = sz
		} else if ferr, ok := v.Survey().Failed[n]; ok {
			perName[n] = "failed: " + ferr.Error()
		}
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"generation":        v.Generation(),
		"added":             len(names),
		"names_total":       v.NumNames(),
		"new_names":         v.NumNames() - prev.NumNames(),
		"new_servers":       v.Survey().Graph.NumHosts() - prev.Survey().Graph.NumHosts(),
		"transport_queries": s.m.Queries() - prevQueries,
		"seconds":           time.Since(start).Seconds(),
		"tcb_sizes":         perName,
	})
}

// snapshotGet streams the session snapshot to a fleet coordinator
// (GET /snapshot). The committed generation doubles as the ETag, so a
// coordinator's conditional refetch of an unchanged shard costs one
// request and zero snapshot bytes.
func (s *server) snapshotGet(w http.ResponseWriter, r *http.Request) {
	gen := s.m.Generation()
	etag := fmt.Sprintf(`"%d"`, gen)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	start := time.Now()
	cw := &countingWriter{w: w}
	if err := s.m.WriteSnapshot(cw); err != nil {
		// The status line is already out; log and cut the stream short
		// (the coordinator sees a truncated container and retries).
		log.Printf("dnsmonitord: snapshot not served: %v", err)
		return
	}
	log.Printf("snapshot: served generation %d (%d bytes, %.2fs)",
		gen, cw.n, time.Since(start).Seconds())
}

// countingWriter sizes the streamed snapshot for the serve log line.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// snapshot saves the session snapshot on demand (POST /snapshot).
func (s *server) snapshot(w http.ResponseWriter, r *http.Request) {
	if s.sess.Snapshot == "" {
		daemon.WriteErr(w, http.StatusBadRequest, errors.New("daemon started without -snapshot"))
		return
	}
	s.saveMu.Lock()
	start := time.Now()
	//lint:allow locksafety saveMu exists solely to serialize writers to one file; no reader ever takes it
	n, err := daemon.SaveSnapshot(s.m, s.sess.Snapshot, log.Printf)
	elapsed := time.Since(start)
	s.saveMu.Unlock()
	if err != nil {
		daemon.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"generation": s.m.Generation(),
		"bytes":      n,
		"seconds":    elapsed.Seconds(),
		"path":       s.sess.Snapshot,
	})
}
