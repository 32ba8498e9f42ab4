package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"dnstrust"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

// Session is the flag block every survey command shares — which world
// to generate and which Internet to crawl it over — and, once opened,
// the transport pieces the command still needs: the logs to save and
// the upstream terminal a resolver can share with the monitor.
type Session struct {
	names    int
	seed     int64
	workers  int
	memoFile string
	record   string
	replay   string
	live     bool
	recLog   *dnstrust.QueryLog
	memoLog  *dnstrust.QueryLog

	// Snapshot is the -snapshot path ("" when off).
	Snapshot string
	// Upstream is the terminal the opened monitor crawls, for a resolver
	// that must see the same Internet (dnstrustd's proxy).
	Upstream transport.Source
}

// BindSession registers -names, -seed, -workers, -memo-file, -record,
// -replay and -live on fs, plus -snapshot for a durable session (one
// restored at boot and saved as it advances).
func BindSession(fs *flag.FlagSet, durable bool) *Session {
	s := &Session{}
	fs.IntVar(&s.names, "names", 20000, "initial survey corpus size (paper: 593160)")
	fs.Int64Var(&s.seed, "seed", 1, "world generation seed")
	fs.IntVar(&s.workers, "workers", 0, "crawl parallelism (0 = GOMAXPROCS)")
	fs.StringVar(&s.memoFile, "memo-file", "", "resume from this query log (answered questions are not asked again) and save every answer back to it")
	if durable {
		fs.StringVar(&s.Snapshot, "snapshot", "", "persist the session snapshot here: restored at boot, saved after each crawl and on SIGTERM")
	}
	fs.StringVar(&s.record, "record", "", "record every transport exchange into this query-log file")
	fs.StringVar(&s.replay, "replay", "", "serve the session from this recorded query log (strict: unrecorded queries fail)")
	fs.BoolVar(&s.live, "live", false, "boot the world's nameservers on loopback and crawl over real UDP/TCP sockets")
	return s
}

// Options maps the parsed flags onto dnstrust.Options. The transport
// fields (RecordLog, ReplayLog, ReplayFallthrough, Source) are composed
// by Open.
func (s *Session) Options() dnstrust.Options {
	return dnstrust.Options{Seed: s.seed, Names: s.names, Workers: s.workers, SnapshotFile: s.Snapshot}
}

// Open generates the world the flags describe, composes the session's
// transport — a fresh recording, a strict replay of a recorded log, a
// -memo-file log replayed with fallthrough, real loopback servers under
// -live — and opens a monitor over it. opts is Options() plus whatever
// else the command sets; logf receives one line per start-up step.
func (s *Session) Open(ctx context.Context, opts dnstrust.Options, logf func(format string, args ...any)) (*dnstrust.Monitor, error) {
	if s.memoFile != "" && s.replay != "" {
		return nil, errors.New("-memo-file and -replay both name a log to answer from; use one")
	}
	if s.record != "" {
		s.recLog = transport.NewLog()
		opts.RecordLog = s.recLog
	}
	if s.memoFile != "" {
		// The memo file is a query log that resumes: what it holds is
		// answered offline, and the terminal chosen below answers (and
		// extends it with) the rest. A missing file is a fresh start.
		s.memoLog = transport.NewLog()
		n, err := s.memoLog.LoadFile(s.memoFile)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("-memo-file %s: %w", s.memoFile, err)
		}
		logf("resuming from %s: %d recorded questions", s.memoFile, n)
		opts.ReplayLog, opts.ReplayFallthrough = s.memoLog, true
	}
	if s.replay != "" {
		// A missing or unreadable recording fails the open: replaying
		// nothing would silently crawl nothing.
		lg := transport.NewLog()
		n, err := lg.LoadFile(s.replay)
		if err != nil {
			return nil, fmt.Errorf("-replay %s: %w", s.replay, err)
		}
		logf("replaying %s: %d recorded questions", s.replay, n)
		opts.ReplayLog = lg
	}
	logf("generating world (seed %d, %d names)...", s.seed, s.names)
	world, err := dnstrust.NewWorld(opts)
	if err != nil {
		return nil, err
	}
	// The terminal is shared between the monitor's crawls and whatever
	// resolves through Upstream, so both see the same Internet. The
	// monitor owns it (OpenWorld composes and closes the chain). Under
	// strict replay the recorded log is the only Internet for both, and
	// no terminal is booted just to be closed.
	switch {
	case s.replay != "":
		if s.live {
			logf("-live ignored: strict -replay serves everything from the recording")
		}
		s.Upstream = transport.Replay(opts.ReplayLog)
	case s.live:
		lv, err := topology.StartLive(ctx, world.Registry)
		if err != nil {
			return nil, fmt.Errorf("starting live servers: %w", err)
		}
		logf("booted %d real DNS servers on loopback", lv.NumServers())
		opts.Source = transport.From(lv)
		s.Upstream = opts.Source
	default:
		opts.Source = world.Registry.Source()
		s.Upstream = opts.Source
	}
	return dnstrust.OpenWorld(ctx, world, opts)
}

// SaveRecording writes the -record and -memo-file query logs, whichever
// are kept, and reports each size on logf. Both are worth saving after
// an aborted crawl: everything answered so far need not be asked again.
// Calls must not overlap.
func (s *Session) SaveRecording(logf func(format string, args ...any)) error {
	return errors.Join(saveLog(s.recLog, s.record, "recording", logf), saveLog(s.memoLog, s.memoFile, "memo file", logf))
}

// saveLog writes lg to path when lg is kept (non-nil).
func saveLog(lg *dnstrust.QueryLog, path, what string, logf func(format string, args ...any)) error {
	if lg == nil {
		return nil
	}
	n, err := lg.SaveFile(path)
	if err != nil {
		return fmt.Errorf("%s not saved: %w", what, err)
	}
	logf("%s: saved %d questions to %s", what, n, path)
	return nil
}

// Crawl brings a freshly opened durable session to its first committed
// generation: a restored -snapshot already holds one; otherwise the
// world's corpus is crawled and persisted.
func (s *Session) Crawl(ctx context.Context, m *dnstrust.Monitor, logf func(format string, args ...any)) (*dnstrust.View, error) {
	if v := m.At(); v.Generation() > 0 {
		logf("snapshot: restored generation %d from %s (0 transport queries)", v.Generation(), s.Snapshot)
		return v, nil
	}
	logf("crawling initial corpus...")
	v, err := m.Add(ctx, m.World().Corpus...)
	if err != nil {
		// A partial recording and memo file both survive an aborted crawl.
		return nil, errors.Join(fmt.Errorf("initial crawl: %w", err), m.Close(), s.SaveRecording(logf))
	}
	s.Persist(m, logf)
	return v, nil
}

// Persist saves what a committed crawl must leave on disk — the -record
// and -memo-file query logs and the -snapshot file, whichever are
// configured — and reports each outcome on logf. Calls must not overlap.
func (s *Session) Persist(m *dnstrust.Monitor, logf func(format string, args ...any)) {
	if err := s.SaveRecording(logf); err != nil {
		logf("%v", err)
	}
	if _, err := SaveSnapshot(m, s.Snapshot, logf); err != nil {
		logf("%v", err)
	}
}

// SaveSnapshot atomically writes m's session snapshot to path ("" = no
// snapshot wanted), reports it on logf and returns its size in bytes.
func SaveSnapshot(m *dnstrust.Monitor, path string, logf func(format string, args ...any)) (int64, error) {
	if path == "" {
		return 0, nil
	}
	start := time.Now()
	n, err := m.SaveSnapshot(path)
	if err != nil {
		return 0, fmt.Errorf("snapshot not saved: %w", err)
	}
	logf("snapshot: saved generation %d to %s (%d bytes, %.2fs)", m.Generation(), path, n, time.Since(start).Seconds())
	return n, nil
}

// Policy is the verdict-policy flag block of the serving daemons.
type Policy struct {
	verdict.Policy
	TTL time.Duration
}

// BindPolicy registers -max-tcb, -narrow-cut, -flag-only and
// -verdict-ttl on fs.
func BindPolicy(fs *flag.FlagSet) *Policy {
	p := &Policy{}
	fs.IntVar(&p.Policy.MaxTCB, "max-tcb", 100, "flag names whose trusted computing base exceeds this many servers (-1 disables)")
	fs.IntVar(&p.Policy.NarrowCut, "narrow-cut", 1, "flag names whose minimum delegation cut is at most this many servers (-1 disables)")
	fs.BoolVar(&p.Policy.FlagOnly, "flag-only", false, "monitor mode: downgrade refusals to flags")
	fs.DurationVar(&p.TTL, "verdict-ttl", time.Minute, "verdict cache TTL (generation commits invalidate changed names immediately)")
	return p
}

// Cache builds the verdict cache the flags describe over m's current
// survey and keeps it advancing with m's commits (evicting only changed
// names). cfg carries the command's own settings — Add, MaxQueue — and
// has Policy and TTL filled in.
func (p *Policy) Cache(m *dnstrust.Monitor, cfg verdict.Config) (*verdict.Cache, error) {
	cfg.Policy, cfg.TTL = p.Policy, p.TTL
	cache, err := verdict.NewCache(m.At().Survey(), cfg)
	if err != nil {
		return nil, err
	}
	m.OnCommit(func(v *dnstrust.View) { cache.Advance(v.Survey()) })
	return cache, nil
}
