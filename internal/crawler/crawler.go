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
	// only way an earlier generation's TCBs and min-cut digraphs can
	// change (see core.Builder.TakeLateAttached); a per-chain analysis
	// memo flushes on a generation that lists any. Nil for almost every
	// batch.
	LateAttachedHosts []int32
	// RescoredHosts lists, sorted, the ids of hosts the previous
	// generation held whose vulnerability changed at this generation: a
	// merged fleet view learning a host's banner from a second shard.
	// Like a late attach it can move the analysis results of every chain
	// whose TCB holds the host, and flushes a per-chain memo. Nil for an
	// engine's batches, which probe each host once.
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
	// Stats summarizes the crawl engine's work (zero for a FromGraph
	// survey, which no engine crawled).
	Stats CrawlStats
	// Walker is the walker of the engine that published the survey, so
	// a resolution can go through the cuts the survey judged
	// (resolver.Resolver.ResolveFrom). Nil, as on a FromGraph or
	// fleet-merged survey, means a fresh walk from the root.
	Walker *resolver.Walker

	// banners and vulns are the publishing owner's fingerprint column
	// (Fingerprints) as of this generation, indexed by host id. Hosts
	// sharing a banner share one exploit slice; nothing mutates them.
	banners []string
	vulns   [][]vulndb.Vuln
}

// HostBanner returns the version.bind answer of host id ("" when
// hidden, unreachable or never probed).
func (s *Survey) HostBanner(id int32) string {
	if int(id) < len(s.banners) {
		return s.banners[id]
	}
	return ""
}

// HostVulns returns the known exploits of host id (nil = none known).
// The slice is shared; callers must not modify it.
func (s *Survey) HostVulns(id int32) []vulndb.Vuln {
	if int(id) < len(s.vulns) {
		return s.vulns[id]
	}
	return nil
}

// Banner is HostBanner by host name.
func (s *Survey) Banner(host string) string {
	if id, ok := s.Graph.HostID(host); ok {
		return s.HostBanner(id)
	}
	return ""
}

// Vulns is HostVulns by host name.
func (s *Survey) Vulns(host string) []vulndb.Vuln {
	if id, ok := s.Graph.HostID(host); ok {
		return s.HostVulns(id)
	}
	return nil
}

// Vulnerable reports whether a host has at least one known exploit.
func (s *Survey) Vulnerable(host string) bool {
	return len(s.Vulns(host)) > 0
}

// Compromisable reports whether a host has an exploit yielding control
// (code execution or cache poisoning), not just denial of service.
func (s *Survey) Compromisable(host string) bool {
	return vulndb.Compromisable(s.Vulns(host))
}

// VulnerableHosts returns the number of discovered hosts with known
// exploits (the paper's 27141-of-166771).
func (s *Survey) VulnerableHosts() int {
	n := 0
	for _, vs := range s.vulns {
		if len(vs) > 0 {
			n++
		}
	}
	return n
}

// discovery is one walker event waiting in the engine's FIFO: a zone cut
// (zone set, hosts its NS set) or the chain of a key (a nameserver host
// or a walked name).
type discovery struct {
	key   string
	zone  bool
	hosts []string
	chain []string
}

// walkResult is one finished per-name walk of a batch.
type walkResult struct {
	name  string
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
	return NewFingerprints().Publish(g, nil, map[string]error{}, CrawlStats{}, nil)
}
