// Package crawler implements the survey engine: it walks the delegation
// dependencies of a whole corpus of names concurrently, probes every
// discovered nameserver's version.bind banner, and produces the survey
// dataset the paper's analyses run on.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dnstrust/internal/core"
	"dnstrust/internal/dnsname"
	"dnstrust/internal/resolver"
	"dnstrust/internal/transport"
	"dnstrust/internal/vulndb"
)

// Config tunes a survey run.
type Config struct {
	// Workers is the walk parallelism; 0 means GOMAXPROCS.
	Workers int
	// SkipVersionProbe disables banner collection (banners come back
	// empty, i.e. optimistically safe).
	SkipVersionProbe bool
	// Source, when non-nil, is the composed transport chain backing the
	// engine's resolver. The engine takes ownership: Close closes it,
	// flushing stateful middleware (query recording) and releasing
	// whatever the terminal holds (live sockets). The engine never
	// queries it directly — queries flow through the resolver, which was
	// built over the same chain.
	Source transport.Source
	// Progress, when non-nil, receives how many of a batch's names have
	// been walked and the batch's size: every 1000 names, and once when
	// the batch is fully walked.
	Progress func(done, total int)
	// ShardName, when non-empty, labels this engine as one shard of a
	// monitor fleet: WriteSnapshot appends a shard/meta section (shard
	// name, committed generation, corpus hash) that the fleet
	// coordinator reads back to identify and validate shard exports.
	// Empty keeps snapshots byte-identical to pre-fleet output.
	ShardName string
}

// CrawlStats summarizes the engine's work for one crawl: scale, the
// parallelism used, how much of the walk load was absorbed by the
// walker's dedup layers instead of crossing the transport, and where the
// wall time went between the streaming walk and the closure build.
type CrawlStats struct {
	// Workers is the parallelism the crawl ran with.
	Workers int
	// Walker carries the walker's query/memo/single-flight counters.
	Walker resolver.Stats
	// CloseErr records a failure to close the engine-owned transport
	// source (Config.Source) after an otherwise successful Run. The
	// survey itself is still returned.
	CloseErr error
	// WalkTime is the wall time of the streaming phase: corpus walk plus
	// incremental graph assembly, which overlap completely.
	WalkTime time.Duration
	// BuildTime is the wall time of the epoch finalize — the Tarjan
	// condensation, closure, and per-chain TCB pass over the already
	// compact arrays. This is the only post-crawl barrier left.
	BuildTime time.Duration
	// Generation stamps the Engine generation this survey was committed
	// at: 1 for a one-shot Run (its engine's only batch), increasing per
	// Add on a resident Engine (a restored engine resumes its saved
	// count), 0 for a survey no Add committed (FromGraph).
	Generation int64
	// LateAttachedHosts lists host ids whose address chain attached
	// after the host had already appeared in an earlier generation — the
	// precise set through which earlier generations' analysis results
	// can be invalidated (see core.Builder.TakeLateAttached). Nil for
	// almost every batch.
	LateAttachedHosts []int32
	// RescoredHosts lists, sorted, the host ids whose vulnerability
	// changed at this generation: a merged fleet view learning a host's
	// banner from a second shard. Like a late attach it moves the
	// analysis results of every chain whose TCB holds the host. Nil for
	// an engine's batches, which probe each host once.
	RescoredHosts []int32
	// FailuresRetried counts the memoized failures evicted at this
	// batch's generation boundary (resolver.Walker.ForgetFailures) — the
	// questions this batch was allowed to re-ask so recovered
	// dependencies become visible.
	FailuresRetried int
}

// Survey is the complete dataset of one crawl: the dependency graph, the
// banner of every discovered server, and the vulnerability analysis
// against the BIND matrix.
type Survey struct {
	// Graph is the dependency graph built incrementally during the crawl.
	Graph *core.Graph
	// Names lists the successfully surveyed names.
	Names []string
	// Failed maps names that could not be walked to their errors.
	Failed map[string]error
	// Banner maps every discovered nameserver host to its version.bind
	// answer ("" when hidden or unreachable).
	Banner map[string]string
	// Vulns maps hosts to their known exploits (absent = none known).
	Vulns map[string][]vulndb.Vuln
	// DB is the vulnerability matrix the survey was scored against.
	DB *vulndb.DB
	// Stats summarizes the crawl engine's work (zero for a FromGraph
	// survey, which no engine crawled).
	Stats CrawlStats
}

// Vulnerable reports whether a host has at least one known exploit.
func (s *Survey) Vulnerable(host string) bool {
	return len(s.Vulns[dnsname.Canonical(host)]) > 0
}

// Compromisable reports whether a host has an exploit yielding control
// (code execution or cache poisoning), not just denial of service.
func (s *Survey) Compromisable(host string) bool {
	for _, v := range s.Vulns[dnsname.Canonical(host)] {
		if v.Class == vulndb.ClassExec || v.Class == vulndb.ClassPoison {
			return true
		}
	}
	return false
}

// VulnerableHosts returns the number of discovered hosts with known
// exploits (the paper's 27141-of-166771).
func (s *Survey) VulnerableHosts() int {
	n := 0
	for _, host := range s.Graph.Hosts() {
		if s.Vulnerable(host) {
			n++
		}
	}
	return n
}

// eventKind tags one entry of the crawl's unified event stream.
type eventKind uint8

const (
	evZone eventKind = iota
	evChain
	evResult
)

// event is one unit of the crawl stream: a walker discovery (zone or
// chain) or a finished per-name walk result. Everything flows through
// one FIFO channel, so the assembler observes zones before the chains
// that traverse them and chains before the results that depend on them.
type event struct {
	kind  eventKind
	key   string
	hosts []string
	chain []string
	err   error
}

// Run crawls the corpus over the given resolver and version prober.
// probe fetches the version.bind banner of a nameserver host; pass nil to
// skip fingerprinting.
//
// Run is the one-shot convenience over the resident Engine: it opens an
// engine, Adds the whole corpus as one batch, and closes the engine. The
// streaming pipeline, worker-pool semantics, and incremental graph
// assembly are the Engine's; see Engine.Add.
func Run(ctx context.Context, r *resolver.Resolver, corpus []string, probe func(ctx context.Context, host string) (string, error), cfg Config) (*Survey, error) {
	if len(corpus) == 0 {
		return nil, fmt.Errorf("crawler: empty corpus")
	}
	e := NewEngine(r, probe, cfg)
	s, addErr := e.Add(ctx, corpus...)
	// A close failure must not discard a completed survey: it is joined
	// onto abort errors and otherwise surfaced through Stats.CloseErr.
	closeErr := e.Close()
	if addErr != nil {
		return nil, errors.Join(addErr, closeErr)
	}
	s.Stats.CloseErr = closeErr
	return s, nil
}

// FromGraph packages a finished dependency graph as a Survey with no
// fingerprinting performed: every host reads as banner-hidden, i.e.
// optimistically safe. It is the cheap path from a synthetic
// core.Builder corpus to the analysis layer (benchmarks, memo tests).
func FromGraph(g *core.Graph) *Survey {
	return &Survey{
		Graph:  g,
		Names:  g.Names(),
		Failed: map[string]error{},
		Banner: make(map[string]string),
		Vulns:  make(map[string][]vulndb.Vuln),
		DB:     vulndb.Default(),
	}
}
