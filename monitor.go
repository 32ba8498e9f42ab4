package dnstrust

import (
	"context"
	"errors"
	"io"
	"os"
	"sync"

	"dnstrust/internal/analysis"
	"dnstrust/internal/atomicio"
	"dnstrust/internal/crawler"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/view"
)

// Survey re-exports the crawl dataset type (graph, banners,
// vulnerabilities, engine stats) so callers outside the module can name
// what View.Survey returns.
type Survey = crawler.Survey

// QueryLog re-exports the transport query log — the recordable,
// replayable, byte-stable capture of every exchange a session performed
// — for Options.RecordLog / Options.ReplayLog.
type QueryLog = transport.Log

// Monitor is the long-lived measurement service this package is built
// around: a resident crawl engine over one world, extended incrementally
// with Add and queried through immutable, generation-stamped Views.
//
// The paper's thesis is that transitive trust must be audited
// *continuously* — TCBs drift as delegations change — and a one-shot
// batch survey cannot do that. A Monitor keeps every zone cut,
// delegation chain, and memoized query from previous batches resident,
// so Add only pays for what is genuinely new: adding names whose
// dependency structure is already walked issues zero transport queries.
//
// Concurrency model: Add and Close serialize internally (one crawl
// advances at a time); At is lock-free and may be called from any number
// of goroutines, including while an Add is in flight — it returns the
// last committed View, whose contents never change. Analysis results
// (min-cuts, whole-survey aggregates) are cached in a chain-keyed memo
// shared across generations and flushed only by the rare batch that can
// change a chain's price (a late-attached host), so repeated
// Summary/Bottleneck passes over a large monitored survey are near-free.
type Monitor struct {
	world *topology.World
	eng   *crawler.Engine
	memo  *analysis.ChainMemo
	// snapshotFile is Options.SnapshotFile: the default target of
	// Snapshot() and the save-on-Close path ("" = snapshots off).
	snapshotFile string

	mu sync.Mutex // serializes Add (and its view commit) and Close
	// tl publishes the committed views; its own lock (not mu) guards the
	// retained ring, so Timeline/Between never block behind a crawl.
	tl *view.Timeline

	// hookMu guards hooks; OnCommit may be called while an Add is in
	// flight without deadlocking against it.
	hookMu sync.Mutex
	hooks  []func(*View)
}

// Open generates a world from opts (Seed, and Names sizing the corpus)
// and starts a monitoring session over it with an empty survey. Names
// are not crawled until Add.
func Open(ctx context.Context, opts Options) (*Monitor, error) {
	world, err := NewWorld(opts)
	if err != nil {
		return nil, err
	}
	return OpenWorld(ctx, world, opts)
}

// NewWorld generates the synthetic world a session with the same
// Seed/Names options would monitor, without starting a crawl. Use it
// when the transport source needs the world first — booting
// topology.StartLive over the registry, say — before OpenWorld.
func NewWorld(opts Options) (*topology.World, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Names == 0 {
		opts.Names = 20000
	}
	return topology.Generate(topology.GenParams{Seed: opts.Seed, Names: opts.Names})
}

// OpenWorld starts a monitoring session over an existing world
// (hand-built or generated). The context is reserved for future
// transport setup; opening does not crawl.
//
// The transport the session queries is composed from the options:
// the terminal is opts.Source (default: the world's in-memory direct
// transport), replaced by a replay of opts.ReplayLog when set (strict,
// or falling through to the terminal on misses); query recording layers
// over it as middleware (compose other middleware, such as
// transport.WireFramed, into opts.Source). The session owns the composed
// chain and closes it on Close.
func OpenWorld(_ context.Context, world *topology.World, opts Options) (*Monitor, error) {
	src := opts.Source
	if src == nil {
		src = world.Registry.Source()
	}
	if opts.ReplayLog != nil {
		if opts.ReplayFallthrough {
			src = transport.ReplayThrough(opts.ReplayLog, src)
		} else {
			// Strict replay displaces the terminal entirely, but the
			// session still owns a caller-supplied Source (a live fleet,
			// say): keep it on the chain's Close path so nothing leaks.
			if opts.Source != nil {
				src = ownedReplay{Source: transport.Replay(opts.ReplayLog), displaced: opts.Source}
			} else {
				src = transport.Replay(opts.ReplayLog)
			}
		}
	}
	if opts.RecordLog != nil {
		src = transport.Chain(src, transport.Record(opts.RecordLog))
	}
	roots := opts.Roots
	if len(roots) == 0 {
		roots = world.Registry.RootServers()
	}
	r, err := resolver.New(src, resolver.Config{Roots: roots})
	if err != nil {
		// The session owns the composed chain from here on; an aborted
		// open must not leak it (live sockets, notably).
		return nil, errors.Join(err, src.Close())
	}
	cfg := crawler.Config{
		Workers:   opts.Workers,
		Progress:  opts.Progress,
		Source:    src,
		ShardName: opts.ShardName,
	}
	var eng *crawler.Engine
	if opts.SnapshotFile != "" {
		if _, serr := os.Stat(opts.SnapshotFile); serr == nil {
			eng, err = crawler.NewEngineFromSnapshot(r, world.Registry.ProbeFunc(src), cfg, opts.SnapshotFile)
		} else if !os.IsNotExist(serr) {
			err = serr
		}
		// A missing snapshot file is a fresh start; corrupt or
		// future-version files fail the open instead (they are never
		// silently discarded).
	}
	if err != nil {
		return nil, errors.Join(err, src.Close())
	}
	if eng == nil {
		eng = crawler.NewEngine(r, world.Registry.ProbeFunc(src), cfg)
	}
	m := &Monitor{world: world, eng: eng, memo: analysis.NewChainMemo(),
		snapshotFile: opts.SnapshotFile, tl: view.NewTimeline(opts.Retain)}
	m.tl.Commit(m.newView(eng.View()))
	return m, nil
}

// Add extends the survey with names and commits a new generation,
// returning its View. Names already surveyed are absorbed from the
// walker's caches without transport traffic; names under already-walked
// zones pay only for their own new labels. On error (cancellation,
// worker failure) nothing is committed: At keeps answering from the
// previous generation, and a retried Add resumes from everything the
// walker already learned.
func (m *Monitor) Add(ctx context.Context, names ...string) (*View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.tl.Current()
	//lint:allow locksafety m.mu exists to serialize Add/Close; holding it across the crawl is the point (reads go through m.tl, never m.mu)
	s, err := m.eng.Add(ctx, names...)
	if err != nil {
		return nil, err
	}
	if s == prev.Survey() {
		return prev, nil // empty Add: no new generation
	}
	m.memo.Advance(prev.Survey(), s)
	v := m.newView(s)
	oldest := m.tl.Commit(v)
	m.hookMu.Lock()
	hooks := m.hooks
	m.hookMu.Unlock()
	for _, fn := range hooks {
		fn(v)
	}
	// Keep the store's history bounded by the retention window — but only
	// after the hooks: they diff the generation they last saw against v
	// through the journal of the epoch just committed, which an unretained
	// timeline (oldest == v) gives up right here.
	if oldest != nil {
		m.eng.PruneJournal(oldest.Survey().Graph.Epoch())
	}
	return v, nil
}

// OnCommit registers fn to run synchronously after every generation
// commit, with the freshly committed View, in registration order and
// still inside Add's critical section — when Add returns, every hook
// has observed the generation it committed. Hooks must not call Add or
// Close (they would deadlock) and should be quick: the serving-side
// verdict cache wires its invalidation here. OnCommit may be called at
// any time; it does not fire for generations committed before
// registration.
func (m *Monitor) OnCommit(fn func(*View)) {
	m.hookMu.Lock()
	m.hooks = append(m.hooks, fn)
	m.hookMu.Unlock()
}

// Timeline returns the retained committed generations, oldest to newest
// (the newest is always At()'s view). The bound is Options.Retain;
// retained Views share the survey's storage copy-on-write, so a long
// timeline costs little beyond its per-generation analysis results.
// Timeline never blocks behind an in-flight Add.
func (m *Monitor) Timeline() []*View { return m.tl.Views() }

// Between computes the typed trust delta from generation from to
// generation to. Both must still be retained (Options.Retain bounds the
// history; Timeline lists what is available). Diffing a generation
// against itself returns an empty delta.
func (m *Monitor) Between(from, to int64) (*Delta, error) {
	return m.BetweenContext(context.Background(), from, to)
}

// BetweenContext is Between honoring ctx: cancellation is checked
// between the per-chain min-cut computations of a large delta.
func (m *Monitor) BetweenContext(ctx context.Context, from, to int64) (*Delta, error) {
	return m.tl.Between(ctx, from, to)
}

// At returns the latest committed View. It never blocks: during an
// in-flight Add it returns the previous generation. The returned View is
// immutable and safe to query from any goroutine indefinitely.
func (m *Monitor) At() *View { return m.tl.Current() }

// World returns the monitored world (registry and corpus).
func (m *Monitor) World() *topology.World { return m.world }

// Generation reports the latest committed generation (0 before the
// first successful Add). It reads the committed view — never the
// engine's internal counter, which during an in-flight Add can already
// name a generation that At() does not serve yet.
func (m *Monitor) Generation() int64 { return m.tl.Current().Generation() }

// Queries reports the cumulative transport queries issued across all
// Adds — the counter behind the memoization guarantee.
func (m *Monitor) Queries() int { return m.eng.Queries() }

// WriteSnapshot serializes the session's resident state — the epoch
// store behind every committed generation, plus banners and the
// generation counter — as one binary snapshot on w. It runs exactly
// between Adds (the engine serializes internally); reads are never
// blocked. Prefer Snapshot/SaveSnapshot for files: they write
// atomically, so an interrupt mid-save never leaves a loadable partial
// snapshot.
func (m *Monitor) WriteSnapshot(w io.Writer) error {
	return m.eng.WriteSnapshot(w)
}

// SaveSnapshot atomically writes the session snapshot to path
// (write-to-temp, fsync, rename — a kill mid-save leaves the previous
// file intact) and returns its size in bytes. A session reopened with
// Options.SnapshotFile naming this file resumes at the saved generation
// with zero transport queries.
func (m *Monitor) SaveSnapshot(path string) (int64, error) {
	return atomicio.WriteFile(path, m.WriteSnapshot)
}

// Snapshot saves the session snapshot to Options.SnapshotFile and
// returns its size in bytes. It errors when the session was opened
// without a snapshot file; use SaveSnapshot to name an explicit path.
func (m *Monitor) Snapshot() (int64, error) {
	if m.snapshotFile == "" {
		return 0, errors.New("dnstrust: Snapshot: no Options.SnapshotFile configured")
	}
	return m.SaveSnapshot(m.snapshotFile)
}

// Close ends the session's write side: the session snapshot is saved
// (when Options.SnapshotFile is set), the query memo is released, the
// transport chain is closed, and further Adds fail. Every committed View
// remains fully queryable.
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var snapErr error
	if m.snapshotFile != "" {
		//lint:allow locksafety final save must exclude a racing Add; m.mu is the session serializer and reads never take it
		_, snapErr = m.SaveSnapshot(m.snapshotFile)
	}
	//lint:allow locksafety Engine.Close flushes under the same serializer so no Add can interleave with teardown
	return errors.Join(snapErr, m.eng.Close())
}

func (m *Monitor) newView(s *crawler.Survey) *View {
	return view.New(s, m.memo, m.world.Popular, view.Merge{})
}

// ownedReplay is a strict replay source that also owns the terminal it
// displaced, honoring Options.Source's close-on-Close contract.
type ownedReplay struct {
	transport.Source
	displaced transport.Source
}

func (o ownedReplay) Close() error {
	return errors.Join(o.Source.Close(), o.displaced.Close())
}

// View re-exports the generation view: one committed, immutable
// generation of a survey plus the full read API of the paper's analyses
// (see internal/view). The fleet Coordinator commits the same type.
type View = view.View
