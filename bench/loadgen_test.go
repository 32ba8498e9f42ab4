package main

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"dnstrust/internal/dnswire"
)

// refuser is a stand-in server that answers every query REFUSED out of
// one fixed buffer, so that the only allocations a test can see are the
// client's own.
func refuser(t *testing.T) net.Addr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 512)
		for {
			n, peer, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			buf[2] |= 0x80
			buf[3] = byte(dnswire.RCodeRefused)
			if _, err := conn.WriteToUDPAddrPort(buf[:n], netip.AddrPortFrom(peer.Addr().Unmap(), peer.Port())); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	return conn.LocalAddr()
}

func refusedTargets(t *testing.T, names ...string) []target {
	t.Helper()
	var out []target
	for _, n := range names {
		tg, err := newTarget(n, dnswire.RCodeRefused)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tg)
	}
	return out
}

// TestClientStepDoesNotAllocate: the generator must cost nothing it
// would then measure. One regular query — draw, send, receive, check —
// allocates nothing once the client exists.
func TestClientStepDoesNotAllocate(t *testing.T) {
	g, err := newLoadgen(refuser(t), 1, 1, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	c := g.clients[0]
	targets := refusedTargets(t, "www.example.com", "a.b.example.org", "x.net")
	if r := c.regular(targets); !r.ok {
		t.Fatalf("exchange with the stand-in server failed: %+v", r)
	}
	if allocs := testing.AllocsPerRun(2000, func() { c.regular(targets) }); allocs != 0 {
		t.Errorf("%.2f allocations per query, want 0", allocs)
	}
	if c.failed != 0 || c.strays != 0 {
		t.Errorf("failed=%d strays=%d, want none", c.failed, c.strays)
	}
}

// TestPhaseRecordsEveryReply runs a short phase against the stand-in
// server and checks the window bookkeeping against the raw counters.
func TestPhaseRecordsEveryReply(t *testing.T) {
	g, err := newLoadgen(refuser(t), 2, 1, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	ph := phase{targets: refusedTargets(t, "www.example.com", "x.net"), warmup: 20 * time.Millisecond, measured: 100 * time.Millisecond, windows: 5}
	res, err := g.runPhase(ph)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, _ := g.totals()
	if failed != 0 || res.samples == 0 || int64(res.samples) > attempted {
		t.Fatalf("samples=%d attempted=%d failed=%d", res.samples, attempted, failed)
	}
	var inWindows float64
	for _, q := range res.windowQPS {
		inWindows += q * 0.020
	}
	if int(inWindows+0.5) != res.samples {
		t.Errorf("windows hold %.1f replies, the phase measured %d", inWindows, res.samples)
	}
	if !(res.p50 > 0 && res.p50 <= res.p99 && res.p99 <= res.p999 && res.p999 <= res.max) {
		t.Errorf("percentiles out of order: %+v", res)
	}
}

// TestSummariseWindows pins the window maths on hand-made samples: two
// clients, two windows of one second.
func TestSummariseWindows(t *testing.T) {
	g := &loadgen{clients: []*client{
		{lat: []int32{1000, 2000, 3000, 9000}, winEnd: []int{3, 4}},
		{lat: []int32{4000, 5000, 6000, 7000, 8000, 10000}, winEnd: []int{1, 6}},
	}}
	res := g.summarise(phase{measured: 2 * time.Second, windows: 2})
	// Window 0 holds 1,2,3,4 µs; window 1 holds 5..10 µs.
	if want := []float64{4, 6}; res.windowQPS[0] != want[0] || res.windowQPS[1] != want[1] {
		t.Errorf("window qps %v, want %v", res.windowQPS, want)
	}
	if want := []float64{4, 10}; res.windowP90[0] != want[0] || res.windowP90[1] != want[1] {
		t.Errorf("window p90 %v µs, want %v", res.windowP90, want)
	}
	if res.samples != 10 || res.p50 != 5 || res.max != 10 || res.meanUs != 5.5 {
		t.Errorf("samples=%d p50=%v max=%v mean=%v, want 10, 5, 10, 5.5", res.samples, res.p50, res.max, res.meanUs)
	}

	// A phase taken in slices is every window of every slice, and the
	// percentiles are over all their samples, not a mean of the slices'.
	g.clients = []*client{{lat: []int32{20000, 30000}, winEnd: []int{2}}}
	merged := mergePhases([]phaseResult{res, g.summarise(phase{measured: time.Second, windows: 1})})
	if want := []float64{4, 6, 2}; len(merged.windowQPS) != 3 || merged.windowQPS[2] != want[2] || merged.windowQPS[0] != want[0] {
		t.Errorf("merged window qps %v, want %v", merged.windowQPS, want)
	}
	if merged.samples != 12 || merged.p50 != 6 || merged.max != 30 || len(merged.windowP90) != 3 {
		t.Errorf("merged samples=%d p50=%v max=%v p90s=%v, want 12, 6, 30 and three windows", merged.samples, merged.p50, merged.max, merged.windowP90)
	}
}
