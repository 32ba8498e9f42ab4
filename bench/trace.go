package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/netip"
	"sync/atomic"
	"time"

	"dnstrust/internal/atomicio"
	"dnstrust/internal/dnsserver"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/transport"
)

// Layers a span can belong to. A request's root span is the load
// generator's send→reply; proxy.ServeDNS is its child and every
// transport.Query the proxy's resolver issues is a child of that.
const (
	layerLoadgen uint8 = iota
	layerProxy
	layerTransport
	numLayers
)

var layerNames = [numLayers]string{"loadgen", "proxy.ServeDNS", "transport.Query"}

// maxClients bounds the load generator's connections: the client index
// rides in the top four bits of the DNS message ID so the server side
// of the trace can tell whose request it is handling.
const maxClients = 16

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Start is nanoseconds since the tracer was created.
type span struct {
	Req   uint64
	Layer uint8
	Start int64
	Dur   int64
}

// tracer records spans from the benchmark's own wrappers around the
// product's layer boundaries — the product itself is not instrumented.
// Spans go into one preallocated array claimed by atomic index, so
// recording neither locks nor allocates; they are aggregated, and
// optionally written out, when the run ends.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	spans []span
	next  atomic.Int64

	// inflight[c] is the request id client c has on the wire. The loop
	// is closed — one outstanding request per client — so the handler
	// wrapper reads the id of the request it is serving from here.
	inflight [maxClients]atomic.Uint64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) record(req uint64, layer uint8, start time.Time, d time.Duration) {
	i := t.next.Add(1) - 1
	if i < int64(len(t.spans)) {
		t.spans[i] = span{Req: req, Layer: layer, Start: int64(start.Sub(t.base)), Dur: int64(d)}
	}
}

// recorded returns the spans kept and how many did not fit.
func (t *tracer) recorded() (kept []span, dropped int64) {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// layerTotals sums the spans per layer.
type layerTotals struct {
	count [numLayers]int64
	ns    [numLayers]int64
}

func (t *tracer) totals() layerTotals {
	var lt layerTotals
	kept, _ := t.recorded()
	for _, s := range kept {
		lt.count[s.Layer]++
		lt.ns[s.Layer] += s.Dur
	}
	return lt
}

// writeSpans writes the kept spans to path, one JSON object a line.
func (t *tracer) writeSpans(path string) error {
	kept, _ := t.recorded()
	_, err := atomicio.WriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		for _, s := range kept {
			fmt.Fprintf(bw, "{\"req\":%d,\"layer\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n", s.Req, layerNames[s.Layer], s.Start, s.Dur)
		}
		return bw.Flush()
	})
	return err
}

type requestKey struct{}

// tracedHandler wraps the proxy where dnsserver calls it: span
// proxy.ServeDNS, with the request id put in ctx for the transport
// spans below it.
type tracedHandler struct {
	next dnsserver.Handler
	tr   *tracer
}

func (h tracedHandler) ServeDNS(ctx context.Context, req *dnswire.Message) *dnswire.Message {
	if !h.tr.on.Load() {
		return h.next.ServeDNS(ctx, req)
	}
	id := h.tr.inflight[req.ID>>12].Load()
	ctx = context.WithValue(ctx, requestKey{}, id)
	start := time.Now()
	resp := h.next.ServeDNS(ctx, req)
	h.tr.record(id, layerProxy, start, time.Since(start))
	return resp
}

// transportProbe is a transport middleware that counts queries and the
// time spent in them, and records a transport.Query span for queries
// issued on behalf of a traced request.
type transportProbe struct {
	queries atomic.Int64
	busyNs  atomic.Int64
	tr      *tracer // nil: count only
}

func (p *transportProbe) middleware() transport.Middleware {
	return func(next transport.Source) transport.Source { return probedSource{next: next, p: p} }
}

type probedSource struct {
	next transport.Source
	p    *transportProbe
}

func (s probedSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	start := time.Now()
	resp, err := s.next.Query(ctx, server, name, qtype, class)
	d := time.Since(start)
	s.p.queries.Add(1)
	s.p.busyNs.Add(int64(d))
	if tr := s.p.tr; tr != nil && tr.on.Load() {
		if id, ok := ctx.Value(requestKey{}).(uint64); ok {
			tr.record(id, layerTransport, start, d)
		}
	}
	return resp, err
}

func (s probedSource) Close() error { return s.next.Close() }
