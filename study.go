// Package dnstrust reproduces "Perils of Transitive Trust in the Domain
// Name System" (Ramasubramanian & Sirer, IMC 2005) as a library: it
// generates a synthetic Internet calibrated to the paper's July-2004
// survey, crawls the delegation dependencies of a web-directory-style
// corpus, and reproduces every figure and headline statistic of the
// paper's evaluation — trusted-computing-base sizes, BIND-exploit
// poisoning, min-cut bottlenecks, and nameserver control rankings.
//
// The primary surface is the long-lived Monitor: a resident survey that
// grows incrementally and is queried through immutable Views while
// crawls advance —
//
//	m, err := dnstrust.Open(ctx, dnstrust.Options{Names: 20000})
//	v, err := m.Add(ctx, m.World().Corpus...)
//	sum := m.At().Summary()
//
// A batch reproduction is the same three calls: RunAll(ctx, v, os.Stdout)
// regenerates every figure and table from the View that Add returned.
//
// Individual subsystems (wire codec, authoritative server, iterative
// resolver, vulnerability matrix, attack simulator) live in internal
// packages; this package wires them together.
package dnstrust

import (
	"dnstrust/internal/resolver"
	"dnstrust/internal/transport"
)

// Options configures a monitoring session.
type Options struct {
	// Seed drives world generation; equal seeds give identical studies.
	// Zero means seed 1.
	Seed int64
	// Names is the survey corpus size. Zero means 20000; the paper's
	// full scale is 593160.
	Names int
	// Workers is the crawl parallelism (0 = GOMAXPROCS).
	Workers int
	// Retain bounds the Monitor's timeline: the number of most recent
	// committed generations kept live for Timeline, Between, and Diff.
	// Retained generations share the survey's append-only storage
	// copy-on-write, so holding many live is cheap — array headers per
	// generation, not full table clones. 0 (or 1) keeps only the latest
	// view, the pre-timeline behavior.
	Retain int
	// Corpus overrides the surveyed name list for DiffLogs: the two
	// recordings are replayed over exactly these names. When it is set
	// together with Roots, DiffLogs skips world generation entirely
	// (recordings of hand-built worlds carry their own corpus). Ignored
	// by Open/OpenWorld, which crawl nothing until Add.
	Corpus []string
	// SnapshotFile, when non-empty, makes session state durable as a
	// binary epoch-store snapshot: OpenWorld restores the last committed
	// generation from the file when it exists (missing is a fresh start),
	// Monitor.Snapshot saves the current generation back to it, and Close
	// saves it one last time. Restoring reproduces the saved generation's
	// entire read surface — graph, banners, vulnerability scoring,
	// Summary — with zero transport queries, in load time rather than
	// re-crawl time. Unlike a query log (which still replays the walk)
	// the snapshot is the walked result itself; see the README's
	// "Snapshots vs. query logs".
	SnapshotFile string
	// Progress receives crawl progress callbacks when non-nil.
	Progress func(done, total int)
	// ShardName, when non-empty, labels this session as one shard of a
	// monitor fleet: every snapshot it writes (SnapshotFile, Monitor
	// snapshot saves, and the dnsmonitord GET /snapshot endpoint)
	// carries a shard/meta section naming the shard, its committed
	// generation, and a hash of its resolved corpus, which the fleet
	// coordinator (internal/fleet) reads back when merging shard epochs.
	// Empty keeps snapshots byte-identical to pre-fleet output.
	ShardName string

	// Source, when non-nil, replaces the world's in-memory direct
	// transport as the terminal the crawl queries: any transport.Source
	// or middleware chain — a topology.StartLive loopback fleet (via
	// transport.From), transport.Live against the real Internet, or a
	// hand-composed transport.Chain with latency/fault/trace layers.
	// The session takes ownership and closes it on Close.
	Source transport.Source
	// Roots overrides the resolver's root hints. Required when Source
	// is not backed by the generated world's registry (a real-network
	// crawl); defaults to the world registry's root servers.
	Roots []resolver.ServerAddr
	// RecordLog, when non-nil, records every successful transport
	// exchange of the session into it (outermost in the chain, so
	// fingerprint probes are captured too). Save the log afterwards to
	// get a byte-stable, replayable recording of the crawl.
	RecordLog *transport.Log
	// ReplayLog, when non-nil, serves the session from the recorded log
	// instead of the terminal source: strict mode (ReplayFallthrough
	// false) errors on any query the log cannot answer, proving the
	// crawl never touched another Internet; fallthrough mode delegates
	// misses to the terminal (Source or the world's direct transport)
	// and records the delta back into the log. Fallthrough over a saved
	// log is how an interrupted survey resumes (the -memo-file flag):
	// answered questions never cross the transport again, and recorded
	// failures are asked again.
	ReplayLog *transport.Log
	// ReplayFallthrough selects the fallthrough replay mode above.
	ReplayFallthrough bool
}
