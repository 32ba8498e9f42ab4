package main

import (
	"context"
	"errors"
	"io"
	"log"
	"sync"
	"time"

	"dnstrust"
	"dnstrust/internal/dnsserver"
	"dnstrust/internal/proxy"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

// addRecord is one background Monitor.Add the verdict cache's add queue
// issued for never-seen names.
type addRecord struct {
	names  int
	corpus int // names in the survey before the batch
	dur    time.Duration
}

// commitLog times the two calls the serving stack makes at a commit, at
// the closures cmd/dnstrustd itself passes in: verdict.Config.Add
// (wrapping Monitor.Add) and the Monitor.OnCommit hook (wrapping
// Cache.Advance). Two clock reads per commit cost nothing a query sees,
// so the log is on in untraced runs too.
type commitLog struct {
	mu    sync.Mutex
	adds  []addRecord
	hooks []time.Duration
}

func (l *commitLog) snapshot() (adds []addRecord, hooks []time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]addRecord(nil), l.adds...), append([]time.Duration(nil), l.hooks...)
}

// stackOptions are the ways a benchmark stack may differ from the
// daemon's: how the monitor is opened, and which of the benchmark's own
// wrappers sit on the layer boundaries.
type stackOptions struct {
	retain       int
	workers      int
	snapshotFile string // restore from / save to this file ("" = off)
	listen       bool   // bind the UDP+TCP listener on 127.0.0.1:0

	tracer       *tracer         // traced run: wrap the handler and the resolver's transport
	crawlProbe   *transportProbe // counts and times the monitor's transport queries
	resolveProbe *transportProbe // counts and times the proxy resolver's transport queries
}

// stack is the serving stack of cmd/dnstrustd, assembled in-process
// from the same public calls and with the daemon's defaults: policy
// max-tcb=100 narrow-cut=1, verdict-ttl=1m, queue=1024, and the proxy's
// logger set as the daemon sets it (here writing to io.Discard).
type stack struct {
	world    *topology.World
	mon      *dnstrust.Monitor
	cache    *verdict.Cache
	resolver *resolver.Resolver
	proxy    *proxy.Proxy
	srv      *dnsserver.Server // nil without stackOptions.listen
	commits  *commitLog
}

var daemonPolicy = verdict.Policy{MaxTCB: 100, NarrowCut: 1}

func bootStack(ctx context.Context, world *topology.World, so stackOptions) (*stack, error) {
	// One terminal shared by the monitor's crawls and the proxy's
	// resolutions, as in the daemon; the monitor owns and closes it.
	base := world.Registry.Source()
	monSrc, resSrc := base, base
	if so.crawlProbe != nil {
		monSrc = transport.Chain(base, so.crawlProbe.middleware())
	}
	if so.resolveProbe != nil {
		resSrc = transport.Chain(base, so.resolveProbe.middleware())
	}

	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{
		Workers: so.workers, Retain: so.retain, SnapshotFile: so.snapshotFile, Source: monSrc,
	})
	if err != nil {
		return nil, err
	}
	s := &stack{world: world, mon: m, commits: &commitLog{}}

	s.cache, err = verdict.NewCache(m.At().Survey(), verdict.Config{
		Policy:   daemonPolicy,
		TTL:      time.Minute,
		MaxQueue: 1024,
		Add: func(ctx context.Context, names ...string) error {
			corpus := m.At().NumNames()
			start := time.Now()
			_, err := m.Add(ctx, names...)
			d := time.Since(start)
			s.commits.mu.Lock()
			s.commits.adds = append(s.commits.adds, addRecord{names: len(names), corpus: corpus, dur: d})
			s.commits.mu.Unlock()
			return err
		},
	})
	if err != nil {
		return nil, errors.Join(err, m.Close())
	}
	m.OnCommit(func(v *dnstrust.View) {
		start := time.Now()
		s.cache.Advance(v.Survey())
		d := time.Since(start)
		s.commits.mu.Lock()
		s.commits.hooks = append(s.commits.hooks, d)
		s.commits.mu.Unlock()
	})
	if v := m.At(); v.Generation() > 0 {
		s.cache.Advance(v.Survey()) // restored from a snapshot, as the daemon does at boot
	}

	s.resolver, err = resolver.New(resSrc, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		return nil, errors.Join(err, s.close(ctx))
	}
	s.proxy, err = proxy.New(proxy.Config{
		Resolver: s.resolver,
		Cache:    s.cache,
		Logger:   log.New(io.Discard, "", log.LstdFlags),
	})
	if err != nil {
		return nil, errors.Join(err, s.close(ctx))
	}
	if so.listen {
		var h dnsserver.Handler = s.proxy
		if so.tracer != nil {
			h = tracedHandler{next: s.proxy, tr: so.tracer}
		}
		s.srv, err = dnsserver.Start(ctx, "127.0.0.1:0", dnsserver.Config{Handler: h})
		if err != nil {
			return nil, errors.Join(err, s.close(ctx))
		}
	}
	return s, nil
}

// close drains the listener, stops the add queue and ends the monitor
// session, in the daemon's shutdown order. A stack restored from a
// snapshot file is not handed to close: Monitor.Close would save the
// snapshot again, a disk write no metric asks for.
func (s *stack) close(ctx context.Context) error {
	var err error
	if s.srv != nil {
		sdCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err = s.srv.Shutdown(sdCtx)
		cancel()
	}
	if s.cache != nil {
		err = errors.Join(err, s.cache.Close())
	}
	return errors.Join(err, s.mon.Close())
}
