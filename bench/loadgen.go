package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"dnstrust/internal/dnswire"
)

const (
	queryTimeout = time.Second
	// The read deadline is pushed out at most this often rather than on
	// every query, so a timeout fires between queryTimeout minus this
	// and queryTimeout after a send — and the generator spends nothing
	// on timers in the common case.
	deadlineRefresh = 250 * time.Millisecond
	probeEvery      = 10 // during churn, every 10th query re-probes a pending name
	drainTimeout    = 5 * time.Second
)

// target is one name a client can ask for: the query packed once at
// preparation time (only its ID bytes change per send) and the rcode the
// stack must answer with. NOERROR must come with a non-empty answer
// section: every benchmark name exists.
type target struct {
	name string
	pkt  []byte
	want dnswire.RCode
}

func newTarget(name string, want dnswire.RCode) (target, error) {
	pkt, err := dnswire.NewQuery(0, name, dnswire.TypeA, dnswire.ClassINET).Pack()
	if err != nil {
		return target{}, fmt.Errorf("pack query for %q: %w", name, err)
	}
	return target{name: name, pkt: slices.Clip(pkt), want: want}, nil
}

// heldName is a name the stack has never seen. Its first query must be
// answered (a provisional flag resolves upstream); if the oracle says
// the policy condemns it, it is then re-probed until it answers REFUSED.
type heldName struct {
	target
	condemned bool
}

type pendingProbe struct {
	idx   int // into client.held
	first time.Time
}

// reply is what the header-only parse of one exchange yields.
type reply struct {
	rcode      dnswire.RCode
	answers    int
	start, end time.Time
	ok         bool // a well-formed reply to this query arrived in time
}

// client is one closed-loop connection: it sends its next query only
// when the previous one is answered (or timed out). Everything it
// touches per query is preallocated; TestClientStepDoesNotAllocate
// holds it to zero allocations in steady state.
type client struct {
	id   int
	conn *net.UDPConn
	rng  *rand.Rand
	tr   *tracer

	sbuf, rbuf []byte
	rlen       int // length of the last reply in rbuf
	seq        uint64
	deadlineAt time.Time

	attempted, failed, timeouts, strays, overflow int64

	// Recording of the phase in progress: one latency per measured
	// reply, and where each window's samples end.
	lat    []int32
	winEnd []int
	curWin int

	// Churn state; it carries over from one phase to the next.
	held       []heldName
	nextHeld   int
	introEvery time.Duration
	nextIntro  time.Time
	pending    []pendingProbe
	pendHead   int
	sinceProbe int
	probeNow   bool
	exposures  []time.Duration
}

// exchange sends pkt under a fresh ID and reads until its reply, a
// timeout, or a socket error. Replies to earlier (timed-out) queries are
// skipped and counted as strays.
func (c *client) exchange(pkt []byte) reply {
	c.attempted++
	n := copy(c.sbuf, pkt)
	c.seq++
	id := uint16(c.id)<<12 | uint16(c.seq&0x0fff)
	c.sbuf[0], c.sbuf[1] = byte(id>>8), byte(id)
	tracing := c.tr != nil && c.tr.on.Load()
	req := uint64(c.id)<<48 | c.seq
	if tracing {
		c.tr.inflight[c.id].Store(req)
	}

	r := reply{start: time.Now()}
	if r.start.Sub(c.deadlineAt) > deadlineRefresh {
		if err := c.conn.SetReadDeadline(r.start.Add(queryTimeout)); err != nil {
			c.failed++
			return r
		}
		c.deadlineAt = r.start
	}
	if _, err := c.conn.Write(c.sbuf[:n]); err != nil {
		c.failed++
		return r
	}
	for {
		m, err := c.conn.Read(c.rbuf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.timeouts++
			}
			c.failed++
			c.deadlineAt = time.Time{} // the deadline has fired: set a new one
			return r
		}
		if m < 12 || c.rbuf[0] != c.sbuf[0] || c.rbuf[1] != c.sbuf[1] {
			c.strays++
			continue
		}
		r.end = time.Now()
		c.rlen = m
		break
	}
	if tracing {
		c.tr.record(req, layerLoadgen, r.start, r.end.Sub(r.start))
	}
	// Header-only parse: QR set, one question, and the question section
	// echoed byte for byte (a query is exactly header plus question).
	rb := c.rbuf[:c.rlen]
	if rb[2]&0x80 == 0 || rb[4] != 0 || rb[5] != 1 || len(rb) < n || !bytes.Equal(rb[12:n], c.sbuf[12:n]) {
		c.failed++
		return r
	}
	r.rcode = dnswire.RCode(rb[3] & 0x0f)
	r.answers = int(rb[6])<<8 | int(rb[7])
	r.ok = true
	return r
}

// answered reports whether r is the expected answer: the rcode, and for
// NOERROR a non-empty answer section.
func answered(r reply, want dnswire.RCode) bool {
	return r.ok && r.rcode == want && (want != dnswire.RCodeSuccess || r.answers > 0)
}

// regular asks for a uniformly drawn target and checks its rcode.
func (c *client) regular(targets []target) reply {
	t := &targets[c.rng.Intn(len(targets))]
	r := c.exchange(t.pkt)
	if r.ok && !answered(r, t.want) {
		c.failed++
		r.ok = false
	}
	return r
}

// introduce asks for the next never-seen name. The answer must be a
// served one: the verdict is a provisional flag, which resolves.
func (c *client) introduce() reply {
	idx := c.nextHeld
	c.nextHeld++
	h := &c.held[idx]
	r := c.exchange(h.pkt)
	if r.ok && !answered(r, dnswire.RCodeSuccess) {
		c.failed++
		r.ok = false
	}
	if h.condemned {
		c.pending = append(c.pending, pendingProbe{idx: idx, first: r.start})
	}
	return r
}

func (c *client) probeDue() bool {
	return c.pendHead < len(c.pending) && (c.probeNow || c.sinceProbe >= probeEvery)
}

// probe re-asks the oldest pending condemned name. REFUSED ends its
// exposure; a served answer means its crawl has not committed yet. When
// one name flips the next is probed at once: a commit flips a whole
// batch, and waiting probeEvery queries for each would be charged to the
// later names' exposure.
func (c *client) probe() reply {
	c.sinceProbe = 0
	p := c.pending[c.pendHead]
	r := c.exchange(c.held[p.idx].pkt)
	switch {
	case answered(r, dnswire.RCodeRefused):
		c.exposures = append(c.exposures, r.end.Sub(p.first))
		c.pendHead++
		c.probeNow = true
	case answered(r, dnswire.RCodeSuccess):
		c.probeNow = false
	default:
		c.probeNow = false
		if r.ok {
			c.failed++
			r.ok = false
		}
	}
	return r
}

// phase is one stretch of traffic: warm-up, then measured windows.
type phase struct {
	targets  []target
	churn    bool
	warmup   time.Duration
	measured time.Duration
	windows  int
}

func (c *client) run(ph *phase, startAt time.Time) {
	measureFrom := startAt.Add(ph.warmup)
	endAt := measureFrom.Add(ph.measured)
	winLen := ph.measured / time.Duration(ph.windows)
	c.lat = c.lat[:0]
	c.winEnd = c.winEnd[:ph.windows]
	c.curWin = 0
	if ph.churn && c.nextIntro.IsZero() {
		c.nextIntro = measureFrom
	}

	now := time.Now()
	for now.Before(endAt) {
		var r reply
		switch {
		case ph.churn && c.probeDue():
			r = c.probe()
		case ph.churn && c.nextHeld < len(c.held) && !now.Before(c.nextIntro):
			r = c.introduce()
			c.nextIntro = c.nextIntro.Add(c.introEvery)
			if c.nextIntro.Before(now) { // fell behind (a stall): do not burst to catch up
				c.nextIntro = now.Add(c.introEvery)
			}
		default:
			r = c.regular(ph.targets)
			c.sinceProbe++
		}
		if !r.ok {
			now = time.Now()
			continue
		}
		now = r.end
		if r.start.Before(measureFrom) {
			continue
		}
		w := min(int(r.end.Sub(measureFrom)/winLen), ph.windows-1)
		for c.curWin < w {
			c.winEnd[c.curWin] = len(c.lat)
			c.curWin++
		}
		if len(c.lat) < cap(c.lat) {
			c.lat = append(c.lat, int32(r.end.Sub(r.start)))
		} else {
			c.overflow++
		}
	}
	for ; c.curWin < ph.windows; c.curWin++ {
		c.winEnd[c.curWin] = len(c.lat)
	}
}

// drain keeps probing the names still pending after churn until each
// has answered REFUSED or the deadline passes; what is left then never
// flipped and is counted as failed.
func (c *client) drain(deadline time.Time) {
	for c.pendHead < len(c.pending) && time.Now().Before(deadline) {
		head := c.pendHead
		c.probe()
		if c.pendHead == head {
			time.Sleep(time.Millisecond) // its commit is in flight; do not spin on the resolver
		}
	}
	c.failed += int64(len(c.pending) - c.pendHead)
	c.attempted += int64(len(c.pending) - c.pendHead)
}

// loadgen is the closed-loop UDP load generator: one connection and one
// goroutine per client, all in this process, over loopback.
type loadgen struct {
	clients []*client
}

// maxWindows bounds phase.windows; sampleCap is the latency samples a
// client can hold for one phase.
const maxWindows = 64

func newLoadgen(addr net.Addr, clients int, seed int64, sampleCap int, tr *tracer) (*loadgen, error) {
	if clients < 1 || clients > maxClients {
		return nil, fmt.Errorf("loadgen: %d clients, want 1..%d", clients, maxClients)
	}
	udp, ok := addr.(*net.UDPAddr)
	if !ok {
		return nil, fmt.Errorf("loadgen: %v is not a UDP address", addr)
	}
	g := &loadgen{}
	for i := 0; i < clients; i++ {
		conn, err := net.DialUDP("udp", nil, udp)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		g.clients = append(g.clients, &client{
			id: i, conn: conn, tr: tr,
			rng:    rand.New(rand.NewSource(clientSeed(seed, i))),
			sbuf:   make([]byte, 512),
			rbuf:   make([]byte, 4096),
			lat:    make([]int32, 0, sampleCap),
			winEnd: make([]int, maxWindows),
		})
	}
	return g, nil
}

// clientSeed derives client i's name-draw stream from the run's seed.
func clientSeed(seed int64, i int) int64 { return seed*1000003 + int64(i) }

// drawSequence is the first n regular draws client i makes over targets
// in a run with this seed — the sequence the direct-call replay of a
// traced run follows.
func drawSequence(seed int64, i int, targets []target, n int) []*target {
	rng := rand.New(rand.NewSource(clientSeed(seed, i)))
	seq := make([]*target, n)
	for j := range seq {
		seq[j] = &targets[rng.Intn(len(targets))]
	}
	return seq
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.conn.Close()
	}
}

// each runs fn once per client, concurrently, and waits for all.
func (g *loadgen) each(fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// sweep asks for every target exactly once, split across the clients,
// and returns the rcode each got (0xff for no usable reply) and the wall
// time. Either a served answer or REFUSED is acceptable here — the
// verdicts are not known yet; runWorkload cross-checks them afterwards.
func (g *loadgen) sweep(targets []target) ([]dnswire.RCode, time.Duration) {
	rcodes := make([]dnswire.RCode, len(targets))
	start := time.Now()
	g.each(func(c *client) {
		for i := c.id; i < len(targets); i += len(g.clients) {
			r := c.exchange(targets[i].pkt)
			rcodes[i] = 0xff
			if answered(r, dnswire.RCodeSuccess) || answered(r, dnswire.RCodeRefused) {
				rcodes[i] = r.rcode
			} else if r.ok {
				c.failed++
			}
		}
	})
	return rcodes, time.Since(start)
}

// armChurn deals the never-seen names out to the clients and sets the
// pace: rate names a second over all clients together. The pace is by
// the clock, not a share of queries, so a faster serving path does not
// load the commit path harder and then get blamed for its exposure.
func (g *loadgen) armChurn(held []heldName, rate float64) {
	for _, c := range g.clients {
		c.held = c.held[:0]
		c.introEvery = time.Duration(float64(len(g.clients)) / rate * float64(time.Second))
	}
	for i, h := range held {
		c := g.clients[i%len(g.clients)]
		c.held = append(c.held, h)
	}
	for _, c := range g.clients {
		c.pending = make([]pendingProbe, 0, len(c.held))
		c.exposures = make([]time.Duration, 0, len(c.held))
	}
}

// phaseResult summarises one phase over all clients.
type phaseResult struct {
	samples   int
	windowQPS []float64
	windowP90 []float64 // µs
	p50, p99  float64   // µs, over all samples
	p999, max float64
	meanUs    float64
	lat       []int32 // every measured latency in ns, sorted
}

func (g *loadgen) runPhase(ph phase) (phaseResult, error) {
	if ph.windows < 1 || ph.windows > maxWindows {
		return phaseResult{}, fmt.Errorf("loadgen: %d windows, want 1..%d", ph.windows, maxWindows)
	}
	if len(ph.targets) == 0 {
		return phaseResult{}, errors.New("loadgen: phase has no targets")
	}
	startAt := time.Now()
	g.each(func(c *client) { c.run(&ph, startAt) })
	for _, c := range g.clients {
		if c.overflow > 0 {
			return phaseResult{}, fmt.Errorf("loadgen: client %d ran out of sample space (%d dropped)", c.id, c.overflow)
		}
	}
	return g.summarise(ph), nil
}

// summarise merges what the clients recorded for ph: a window's qps is
// the replies all clients completed in it over its length, its p90 is
// over those replies' latencies, and the whole-phase percentiles are
// over every measured reply.
func (g *loadgen) summarise(ph phase) phaseResult {
	var res phaseResult
	winSec := (ph.measured / time.Duration(ph.windows)).Seconds()
	var all []int32
	for w := 0; w < ph.windows; w++ {
		var win []int32
		for _, c := range g.clients {
			lo := 0
			if w > 0 {
				lo = c.winEnd[w-1]
			}
			win = append(win, c.lat[lo:c.winEnd[w]]...)
		}
		slices.Sort(win)
		res.windowQPS = append(res.windowQPS, float64(len(win))/winSec)
		res.windowP90 = append(res.windowP90, float64(percentile(win, 0.90))/1e3)
		all = append(all, win...)
	}
	res.setLatencies(all)
	return res
}

// setLatencies fills in the whole-phase numbers from every measured
// latency.
func (res *phaseResult) setLatencies(all []int32) {
	slices.Sort(all)
	var sum float64
	for _, d := range all {
		sum += float64(d)
	}
	res.lat = all
	res.samples = len(all)
	res.p50 = float64(percentile(all, 0.50)) / 1e3
	res.p99 = float64(percentile(all, 0.99)) / 1e3
	res.p999 = float64(percentile(all, 0.999)) / 1e3
	res.max = float64(percentile(all, 1)) / 1e3
	res.meanUs = ratio(sum, float64(len(all))) / 1e3
}

// mergePhases is the slices of one phase as one phase: every window of
// every slice, and the percentiles over all their samples.
func mergePhases(parts []phaseResult) phaseResult {
	if len(parts) == 1 {
		return parts[0]
	}
	var res phaseResult
	var all []int32
	for _, p := range parts {
		res.windowQPS = append(res.windowQPS, p.windowQPS...)
		res.windowP90 = append(res.windowP90, p.windowP90...)
		all = append(all, p.lat...)
	}
	res.setLatencies(all)
	return res
}

// drain finishes the exposure measurement after the last churn phase
// and returns every exposure measured.
func (g *loadgen) drain() []time.Duration {
	deadline := time.Now().Add(drainTimeout)
	g.each(func(c *client) { c.drain(deadline) })
	var out []time.Duration
	for _, c := range g.clients {
		out = append(out, c.exposures...)
	}
	return out
}

// totals sums the clients' operation counters.
func (g *loadgen) totals() (attempted, failed, timeouts int64) {
	for _, c := range g.clients {
		attempted += c.attempted
		failed += c.failed
		timeouts += c.timeouts
	}
	return attempted, failed, timeouts
}
