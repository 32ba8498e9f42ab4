// Command dnstrustd is the trust-aware resolving DNS proxy: a real
// UDP/TCP DNS frontend that resolves queries iteratively upstream and
// applies the monitor's transitive-trust verdict to every name before
// answering — allow serves silently, flag serves and logs, refuse
// answers REFUSED without contacting upstream at all. It is the
// serving-path counterpart of dnsmonitord: the same continuously
// extendable survey, consulted at wire speed on the query path instead
// of over HTTP after the fact.
//
// Usage:
//
//	dnstrustd [-listen 127.0.0.1:5353] [-names 20000] [-seed 1] [-workers 0]
//	          [-memo-file crawl.qlog] [-snapshot session.snap]
//	          [-record crawl.qlog] [-replay crawl.qlog] [-live]
//	          [-max-tcb 100] [-narrow-cut 1] [-flag-only]
//	          [-verdict-ttl 1m] [-queue 1024] [-stats-every 60s]
//
// -memo-file resumes the monitor's crawls from a query log replayed
// with fallthrough (questions it answered are not asked again) and saves
// the log back after the initial crawl and on SIGTERM. The proxy's own
// resolution goes to the terminal (the default or -live), never to the
// log.
//
// Per-name verdicts come from a 64-shard, read-locked cache invalidated
// precisely at each generation commit: only names whose delegation
// chains changed are evicted, each under its own shard's lock, so a
// commit never stalls the serving hot path. Names the monitor has never
// surveyed are answered immediately with a provisional flag verdict and
// queued for a background crawl; once it commits, the next query sees
// the real verdict.
//
// The policy matrix:
//
//	refuse  hijackable (exec/poison-class vulnerable) server in the TCB,
//	        or a minimum cut made up entirely of vulnerable servers
//	flag    TCB larger than -max-tcb, min-cut at most -narrow-cut,
//	        DoS-class vulnerable dependency, name unknown or unwalkable
//	allow   everything else
//
// -flag-only downgrades refusals to flags (monitor mode).
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnstrust/internal/daemon"
	"dnstrust/internal/dnsserver"
	"dnstrust/internal/proxy"
	"dnstrust/internal/resolver"
	"dnstrust/internal/verdict"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5353", "DNS listen address (UDP and TCP)")
	queueSize := flag.Int("queue", 1024, "background crawl queue bound for never-seen names")
	statsEvery := flag.Duration("stats-every", time.Minute, "periodic stats log interval (0 disables)")
	sess := daemon.BindSession(flag.CommandLine, true)
	policy := daemon.BindPolicy(flag.CommandLine)
	flag.Parse()

	ctx := context.Background()
	start := time.Now()
	m, err := sess.Open(ctx, sess.Options(), log.Printf)
	if err != nil {
		log.Fatalf("dnstrustd: %v", err)
	}
	cache, err := policy.Cache(m, verdict.Config{
		MaxQueue: *queueSize,
		Add: func(ctx context.Context, names ...string) error {
			_, err := m.Add(ctx, names...)
			return err
		},
	})
	if err != nil {
		log.Fatalf("dnstrustd: %v", err)
	}

	v, err := sess.Crawl(ctx, m, log.Printf)
	if err != nil {
		log.Fatalf("dnstrustd: %v", err)
	}
	log.Printf("generation %d ready: %d names, %d nameservers (%.1fs)",
		v.Generation(), v.NumNames(), v.Survey().Graph.NumHosts(), time.Since(start).Seconds())

	// The proxy resolves through the terminal the monitor crawls, so
	// both see the same Internet; the monitor owns it, and the proxy is
	// shut down first.
	r, err := resolver.New(sess.Upstream, resolver.Config{Roots: m.World().Registry.RootServers()})
	if err != nil {
		log.Fatalf("dnstrustd: %v", err)
	}
	p, err := proxy.New(proxy.Config{
		Resolver: r,
		Cache:    cache,
		Logger:   log.Default(),
	})
	if err != nil {
		log.Fatalf("dnstrustd: %v", err)
	}
	srv, err := dnsserver.Start(ctx, *listen, dnsserver.Config{Handler: p})
	if err != nil {
		log.Fatalf("dnstrustd: %v", err)
	}
	log.Printf("serving DNS on %s (udp+tcp); policy: %+v, verdict TTL %v", srv.Addr(), policy.Policy, policy.TTL)

	// The stats reporter gets an explicit stop edge (a time.Tick range
	// never terminates and would outlive the drain below, racing the
	// final stats line).
	statsStop := make(chan struct{})
	if *statsEvery > 0 {
		tick := time.NewTicker(*statsEvery)
		go func() {
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					ps, cs := p.Stats(), cache.Stats()
					log.Printf("stats: served=%d refused=%d flagged=%d failed=%d | cache gen=%d size=%d hits=%d misses=%d evicted=%d queued=%d",
						ps.Served, ps.Refused, ps.Flagged, ps.Failed,
						cs.Generation, cs.Size, cs.Hits, cs.Misses, cs.Evicted, cs.Enqueued)
				case <-statsStop:
					return
				}
			}
		}()
	}

	// SIGTERM/SIGINT: drain in-flight queries, stop the crawl queue,
	// save session state, exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	sig := <-sigc
	log.Printf("%v: draining and shutting down", sig)
	close(statsStop)
	sdCtx, cancel := context.WithTimeout(ctx, daemon.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		log.Printf("dnstrustd: drain: %v", err)
	}
	cache.Close()
	if err := m.Close(); err != nil {
		log.Printf("dnstrustd: shutdown: %v", err)
		os.Exit(1)
	}
	if err := sess.SaveRecording(log.Printf); err != nil {
		log.Printf("dnstrustd: %v", err)
	}
	ps := p.Stats()
	log.Printf("served=%d refused=%d flagged=%d failed=%d", ps.Served, ps.Refused, ps.Flagged, ps.Failed)
}
