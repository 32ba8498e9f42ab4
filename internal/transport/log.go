package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"dnstrust/internal/atomicio"
	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
)

// ErrNotRecorded is returned by a strict Replay source for a query the
// log has no answer to.
var ErrNotRecorded = errors.New("transport: query not in recorded log")

// Log is a recorded query log: every successful exchange a Record
// middleware observed, keyed by (name, qtype, class), storing responses
// as packed wire messages. A saved log is byte-stable — sorted records,
// response IDs normalized to zero — so two recordings of the same
// corpus are byte-identical and diffable, and a log is all a Replay
// source needs to serve an entire crawl offline. It is also the one
// on-disk format for resuming a crawl: replayed with fallthrough
// (ReplayThrough), a log answers what it holds and records the rest.
//
// Each question keeps two kinds of record (see record):
//
//   - a per-server exact answer, for every class. CHAOS version.bind
//     banners differ per box, and an INET question asked of the root
//     and of the TLD gets different answers. A SERVFAIL/REFUSED INET
//     answer is never kept per server.
//   - for INET, one server-agnostic fallback: the first answer, replaced
//     by a later success when the first was a SERVFAIL/REFUSED, so a
//     transient failure from one server never shadows the real answer
//     (the walker's own dispatch retries past it the same way).
//
// Recordings stay schedule-independent because the walker asks each
// (name, qtype) once — query memo plus single flight — of one zone, whose
// servers it tries in sorted host order. Plain Resolver.Resolve traffic
// is outside this model — it re-asks the same (name, qtype) at every
// delegation hop, so its recordings are not replayable.
//
// A Log is safe for concurrent use.
type Log struct {
	mu sync.RWMutex
	m  map[logKey]*logEntry
}

type logKey struct {
	name  string
	qtype dnswire.Type
	class dnswire.Class
}

// logEntry holds the packed responses recorded for one question:
// per-server exact answers (CHAOS version.bind banners differ per box)
// plus one server-agnostic fallback (the first recording). wildBad marks
// a fallback whose RCode was a server failure — a later successful
// answer replaces it, so a transient SERVFAIL from the first-tried
// server cannot shadow the real answer the retry found.
type logEntry struct {
	byServer map[netip.Addr][]byte
	wild     []byte
	wildBad  bool
}

// badRCode reports whether a response is the kind the walker's dispatch
// retries past (the server answered, uselessly).
func badRCode(rc dnswire.RCode) bool {
	return rc == dnswire.RCodeServFail || rc == dnswire.RCodeRefused
}

// NewLog returns an empty query log.
func NewLog() *Log {
	return &Log{m: make(map[logKey]*logEntry)}
}

// Len reports how many distinct questions the log has answers for.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.m)
}

// record stores resp for the exchange. Every class keeps a per-server
// exact recording: the same INET question gets different answers at
// different delegation levels (the root refers a leaf query to the TLD,
// the TLD to the zone), so an iterative resolver replaying a log needs
// the per-server answer, and CHAOS version.bind banners differ per box.
// INET additionally keeps a server-agnostic fallback — the first
// recording — so a replay whose retry schedule lands on a server the
// recording never asked still gets the deterministic answer to the
// question. Responses are packed with the ID normalized to zero so
// recorded logs are byte-stable across runs regardless of the client's
// ID sequence.
func (l *Log) record(server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class, resp *dnswire.Message) {
	norm := *resp
	norm.ID = 0
	pkt, err := norm.Pack()
	if err != nil {
		// An unpackable answer (synthetic transports can carry them) is
		// simply not recorded; a replay of this log misses it.
		return
	}
	key := logKey{name: dnsname.Canonical(name), qtype: qtype, class: class}
	l.mu.Lock()
	e := l.m[key]
	if e == nil {
		e = &logEntry{byServer: make(map[netip.Addr][]byte)}
		l.m[key] = e
	}
	// A bad INET RCode is schedule noise (the retry against another
	// server finds the real answer) — keep it out of the per-server
	// map so it cannot shadow that answer on replay.
	if _, ok := e.byServer[server]; !ok && !(class == dnswire.ClassINET && badRCode(resp.RCode)) {
		e.byServer[server] = pkt
	}
	if class == dnswire.ClassINET {
		if e.wild == nil || (e.wildBad && !badRCode(resp.RCode)) {
			e.wild = pkt
			e.wildBad = badRCode(resp.RCode)
		}
	}
	l.mu.Unlock()
}

// lookup returns the packed response for a query: the exact
// (server, question) recording when present, the server-agnostic
// fallback otherwise. bad reports that the answer is a fallback whose
// RCode was a server failure.
func (l *Log) lookup(server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (pkt []byte, bad, ok bool) {
	key := logKey{name: dnsname.Canonical(name), qtype: qtype, class: class}
	l.mu.RLock()
	defer l.mu.RUnlock()
	e, ok := l.m[key]
	if !ok {
		return nil, false, false
	}
	if pkt, ok := e.byServer[server]; ok {
		return pkt, false, true
	}
	return e.wild, e.wildBad, e.wild != nil
}

// Log file format (little-endian), one record per recorded exchange:
//
//	u8 addrLen | addr bytes (0 = server-agnostic) | u16 nameLen | name |
//	u16 qtype | u16 class | u32 msgLen | packed DNS message
var logMagic = []byte("DNSQLOG1\n")

// Save writes the log to dst in deterministic order — records sorted by
// (name, qtype, class, server) — and returns how many records were
// written. Equal logs serialize byte-identically, so recordings of the
// same corpus are diffable.
func (l *Log) Save(dst io.Writer) (int, error) {
	type rec struct {
		key  logKey
		addr netip.Addr // zero value = server-agnostic
		wild bool
		pkt  []byte
	}
	l.mu.RLock()
	var recs []rec
	for key, e := range l.m {
		for a, pkt := range e.byServer {
			recs = append(recs, rec{key: key, addr: a, pkt: pkt})
		}
		if e.wild != nil {
			recs = append(recs, rec{key: key, wild: true, pkt: e.wild})
		}
	}
	l.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.key.name != b.key.name {
			return a.key.name < b.key.name
		}
		if a.key.qtype != b.key.qtype {
			return a.key.qtype < b.key.qtype
		}
		if a.key.class != b.key.class {
			return a.key.class < b.key.class
		}
		if a.wild != b.wild {
			return a.wild // server-agnostic records sort first
		}
		return a.addr.Less(b.addr)
	})

	bw := bufio.NewWriter(dst)
	if _, err := bw.Write(logMagic); err != nil {
		return 0, err
	}
	n := 0
	var hdr [10]byte
	for _, r := range recs {
		if len(r.key.name) > 0xffff || len(r.pkt) > 0xffff {
			continue
		}
		var addr []byte
		if !r.wild {
			b := r.addr.As16()
			addr = b[:]
		}
		if err := bw.WriteByte(byte(len(addr))); err != nil {
			return n, err
		}
		if _, err := bw.Write(addr); err != nil {
			return n, err
		}
		binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(r.key.name)))
		binary.LittleEndian.PutUint16(hdr[2:4], uint16(r.key.qtype))
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(r.key.class))
		binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(r.pkt)))
		if _, err := bw.Write(hdr[0:2]); err != nil {
			return n, err
		}
		if _, err := bw.WriteString(r.key.name); err != nil {
			return n, err
		}
		if _, err := bw.Write(hdr[2:10]); err != nil {
			return n, err
		}
		if _, err := bw.Write(r.pkt); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// SaveFile writes the log to path, returning how many records were
// written. It is the one shared persistence path for every tool that
// keeps recordings (dnssurvey -record, dnsmonitord). The write is
// atomic (tmp+fsync+rename via atomicio): a crash or SIGTERM mid-save
// leaves the previous recording intact, never a partial log that still
// parses up to the truncation point.
func (l *Log) SaveFile(path string) (int, error) {
	n := 0
	_, err := atomicio.WriteFile(path, func(w io.Writer) error {
		var serr error
		n, serr = l.Save(w)
		return serr
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// LoadFile reads a query-log file into the log, returning how many
// records were read.
func (l *Log) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return l.Load(f)
}

// Load reads records from src and merges them into the log, returning
// how many records were read. Existing entries win over loaded ones.
func (l *Log) Load(src io.Reader) (int, error) {
	br := bufio.NewReader(src)
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("transport: log header: %w", err)
	}
	if string(magic) != string(logMagic) {
		return 0, fmt.Errorf("transport: not a query log (want a %q header)", logMagic[:len(logMagic)-1])
	}
	loaded := 0
	var hdr [10]byte
	for {
		addrLen, err := br.ReadByte()
		if err != nil {
			if err == io.EOF {
				return loaded, nil
			}
			return loaded, fmt.Errorf("transport: log record: %w", err)
		}
		var addr netip.Addr
		wild := addrLen == 0
		if !wild {
			if addrLen != 16 {
				return loaded, fmt.Errorf("transport: log record: bad address length %d", addrLen)
			}
			var ab [16]byte
			if _, err := io.ReadFull(br, ab[:]); err != nil {
				return loaded, fmt.Errorf("transport: log record: %w", err)
			}
			addr = netip.AddrFrom16(ab).Unmap()
		}
		if _, err := io.ReadFull(br, hdr[0:2]); err != nil {
			return loaded, fmt.Errorf("transport: log record: %w", err)
		}
		name := make([]byte, binary.LittleEndian.Uint16(hdr[0:2]))
		if _, err := io.ReadFull(br, name); err != nil {
			return loaded, fmt.Errorf("transport: log record: %w", err)
		}
		if _, err := io.ReadFull(br, hdr[2:10]); err != nil {
			return loaded, fmt.Errorf("transport: log record: %w", err)
		}
		qtype := dnswire.Type(binary.LittleEndian.Uint16(hdr[2:4]))
		class := dnswire.Class(binary.LittleEndian.Uint16(hdr[4:6]))
		msgLen := binary.LittleEndian.Uint32(hdr[6:10])
		if msgLen > 0xffff {
			return loaded, fmt.Errorf("transport: log message for %q: implausible length %d", name, msgLen)
		}
		pkt := make([]byte, msgLen)
		if _, err := io.ReadFull(br, pkt); err != nil {
			return loaded, fmt.Errorf("transport: log record: %w", err)
		}
		msg, err := dnswire.Unpack(pkt)
		if err != nil {
			return loaded, fmt.Errorf("transport: log message for %q: %w", name, err)
		}
		l.install(logKey{name: string(name), qtype: qtype, class: class}, addr, wild, pkt, badRCode(msg.RCode))
		loaded++
	}
}

// install merges one loaded record. Unlike live recording, a loaded
// per-server record does not double as the server-agnostic fallback:
// files round-trip exactly (Save∘Load∘Save is the identity on bytes).
func (l *Log) install(key logKey, addr netip.Addr, wild bool, pkt []byte, bad bool) {
	l.mu.Lock()
	e := l.m[key]
	if e == nil {
		e = &logEntry{byServer: make(map[netip.Addr][]byte)}
		l.m[key] = e
	}
	if wild {
		if e.wild == nil {
			e.wild = pkt
			e.wildBad = bad
		}
	} else if _, ok := e.byServer[addr]; !ok {
		e.byServer[addr] = pkt
	}
	l.mu.Unlock()
}

// Record returns middleware that records every successful exchange
// passing through it into log. Errors (timeouts, unreachable servers)
// are not recorded: a replayed crawl re-discovers them as log misses,
// which fail the same retry paths.
func Record(log *Log) Middleware {
	return func(next Source) Source {
		return layer{inner: next, query: func(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
			resp, err := next.Query(ctx, server, name, qtype, class)
			if err == nil && resp != nil {
				log.record(server, name, qtype, class, resp)
			}
			return resp, err
		}}
	}
}

// Replay is the strict offline terminal source: every query is served
// from the recorded log through the wire codec (each answer is unpacked
// fresh, so callers share nothing), and a query the log cannot answer
// fails with ErrNotRecorded. A crawl that completes over a strict
// Replay source provably never touched any other Internet.
func Replay(log *Log) Source {
	return replaySource{log: log}
}

type replaySource struct{ log *Log }

func (r replaySource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pkt, _, ok := r.log.lookup(server, name, qtype, class)
	if !ok {
		return nil, fmt.Errorf("%w: %s %v %v", ErrNotRecorded, name, qtype, class)
	}
	return dnswire.Unpack(pkt)
}

func (r replaySource) Close() error { return nil }

// ReplayThrough is the fallthrough replay source: queries the log can
// answer are served offline; misses delegate to inner and the delta is
// recorded back into the log, so the returned source converges toward a
// complete recording. Only successes are resumed: a question whose only
// record is a SERVFAIL/REFUSED counts as a miss and is asked again, so a
// dependency that was lame and has recovered is seen. Misses() counts
// the delegated queries — zero proves the log already covered the crawl.
func ReplayThrough(log *Log, inner Source) *FallthroughSource {
	return &FallthroughSource{log: log, inner: inner}
}

// FallthroughSource is the Source returned by ReplayThrough.
type FallthroughSource struct {
	log    *Log
	inner  Source
	misses atomic.Int64
}

// Misses reports how many queries fell through to the inner source.
func (f *FallthroughSource) Misses() int64 { return f.misses.Load() }

// Query implements Source.
func (f *FallthroughSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	if pkt, bad, ok := f.log.lookup(server, name, qtype, class); ok && !bad {
		return dnswire.Unpack(pkt)
	}
	f.misses.Add(1)
	resp, err := f.inner.Query(ctx, server, name, qtype, class)
	if err == nil && resp != nil {
		f.log.record(server, name, qtype, class, resp)
	}
	return resp, err
}

// Close closes the inner source.
func (f *FallthroughSource) Close() error { return f.inner.Close() }
