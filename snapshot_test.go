package dnstrust

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dnstrust/internal/crawler"
	"dnstrust/internal/transport"
	"dnstrust/internal/vulndb"
)

// TestMonitorSnapshotColdStart is the headline restart property: a
// session reopened from a snapshot file reproduces the saved
// generation's Summary byte-for-byte with zero transport queries, and
// then keeps crawling incrementally. Reopened with the fallthrough query
// log it kept before the restart (the -memo-file recipe), its next batch
// asks the terminal exactly what a monitor that never restarted asks.
func TestMonitorSnapshotColdStart(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "session.snap")
	world, err := NewWorld(Options{Seed: 11, Names: 2000})
	if err != nil {
		t.Fatal(err)
	}
	half := len(world.Corpus) / 2
	first, second := world.Corpus[:half], world.Corpus[half:]
	// open starts a session over world whose terminal queries are counted.
	open := func(opts Options) (*Monitor, *transport.Counter) {
		counter := transport.NewCounter()
		opts.Source = transport.Chain(world.Registry.Source(), counter.Middleware())
		m, err := OpenWorld(ctx, world, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m, counter
	}
	summary := func(v *View) string {
		b, err := json.Marshal(v.Summary())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	log := transport.NewLog()
	m, _ := open(Options{SnapshotFile: path, ReplayLog: log, ReplayFallthrough: true})
	v1, err := m.Add(ctx, first...)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.Snapshot(); err != nil || n == 0 {
		t.Fatalf("Snapshot() = %d bytes, %v", n, err)
	}
	var logFile bytes.Buffer
	if _, err := log.Save(&logFile); err != nil {
		t.Fatal(err)
	}
	wantSum, wantNames := summary(v1), v1.Names()

	resumed := transport.NewLog()
	if _, err := resumed.Load(&logFile); err != nil {
		t.Fatal(err)
	}
	m2, terminal := open(Options{SnapshotFile: path, ReplayLog: resumed, ReplayFallthrough: true})
	if got := m2.Queries(); got != 0 {
		t.Fatalf("cold start issued %d transport queries, want 0", got)
	}
	if m2.Generation() != v1.Generation() {
		t.Fatalf("restored generation = %d, want %d", m2.Generation(), v1.Generation())
	}
	v2 := m2.At()
	if !reflect.DeepEqual(v2.Names(), wantNames) {
		t.Fatal("restored names differ")
	}
	if gotSum := summary(v2); gotSum != wantSum {
		t.Fatalf("restored summary differs:\n got %s\nwant %s", gotSum, wantSum)
	}
	// The exploit table is rescored from the saved banners on load.
	if want, got := vulnTable(v1.Survey()), vulnTable(v2.Survey()); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored Vulns (%d hosts) differ from the saved survey's (%d hosts)",
			len(got), len(want))
	}
	if got := m2.Queries(); got != 0 {
		t.Fatalf("restored Summary touched the transport: %d queries", got)
	}
	for _, n := range wantNames[:10] {
		w1, err1 := v1.Bottleneck(n)
		w2, err2 := v2.Bottleneck(n)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(w1, w2) {
			t.Fatalf("min-cut for %q differs after restore (%v, %v)", n, err1, err2)
		}
	}

	// The restored session is live: the second half commits the next
	// generation, asking the terminal exactly what a monitor that never
	// restarted asks. The walker's caches start cold, so it re-asks
	// questions the first half answered; the log serves every one.
	v3, err := m2.Add(ctx, second...)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Generation() != v1.Generation()+1 {
		t.Fatalf("post-restore Add committed generation %d, want %d",
			v3.Generation(), v1.Generation()+1)
	}
	m0, never := open(Options{})
	if _, err := m0.Add(ctx, first...); err != nil {
		t.Fatal(err)
	}
	neverBefore, walkerBefore := never.Queries(), m0.Queries()
	v0, err := m0.Add(ctx, second...)
	if err != nil {
		t.Fatal(err)
	}
	neverAsked := never.Queries() - neverBefore
	if got := terminal.Queries(); got != neverAsked {
		t.Errorf("restored monitor asked the terminal %d times for the second half, never-restarted %d", got, neverAsked)
	}
	t.Logf("second half: %d terminal queries on both sides; the log served %d walker re-asks",
		neverAsked, m2.Queries()-(m0.Queries()-walkerBefore))
	if got, want := summary(v3), summary(v0); got != want {
		t.Fatalf("second-half summary differs after restart:\n got %s\nwant %s", got, want)
	}
}

// writeCounter counts the Write calls and bytes that reach it.
type writeCounter struct{ calls, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	w.bytes += len(p)
	return len(p), nil
}

// TestMonitorSnapshotWritesInBlocks: a snapshot reaches its destination
// in blocks, not one Write per string and offset — to a file each Write
// is a system call.
func TestMonitorSnapshotWritesInBlocks(t *testing.T) {
	ctx := context.Background()
	world, err := NewWorld(Options{Seed: 11, Names: 2000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenWorld(ctx, world, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(ctx, world.Corpus...); err != nil {
		t.Fatal(err)
	}
	var w writeCounter
	if err := m.WriteSnapshot(&w); err != nil {
		t.Fatal(err)
	}
	if limit := w.bytes/(32<<10) + 16; w.calls > limit {
		t.Fatalf("a %d-byte snapshot took %d Write calls, want <= %d", w.bytes, w.calls, limit)
	}
}

// TestMonitorSnapshotSavedOnClose checks the durable-session loop with
// no explicit Snapshot call at all: Close saves, the next Open restores.
func TestMonitorSnapshotSavedOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.snap")
	opts := Options{Seed: 13, Names: 150, SnapshotFile: path}
	m := openTestMonitor(t, opts)
	if _, err := m.Add(context.Background(), m.World().Corpus...); err != nil {
		t.Fatal(err)
	}
	queried := m.Queries()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close did not save the snapshot: %v", err)
	}
	if queried == 0 {
		t.Fatal("first session issued no queries")
	}

	m2 := openTestMonitor(t, opts)
	if m2.Generation() != 1 || m2.Queries() != 0 {
		t.Fatalf("restored session: generation %d, %d queries", m2.Generation(), m2.Queries())
	}
	if m2.At().NumNames() != len(m2.World().Corpus) {
		t.Fatalf("restored %d names, want %d", m2.At().NumNames(), len(m2.World().Corpus))
	}
}

// TestMonitorSnapshotUnconfigured: Snapshot without a configured file is
// an error; SaveSnapshot with an explicit path still works.
func TestMonitorSnapshotUnconfigured(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 60})
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot without Options.SnapshotFile must fail")
	}
	path := filepath.Join(t.TempDir(), "explicit.snap")
	if n, err := m.SaveSnapshot(path); err != nil || n == 0 {
		t.Fatalf("SaveSnapshot = %d, %v", n, err)
	}
}

// TestMonitorSnapshotCorruptFailsClosed: a corrupt snapshot file must
// fail the open loudly, never silently start fresh over it.
func TestMonitorSnapshotCorruptFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, []byte("DNSTSNP\x00 not actually a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(context.Background(), Options{Seed: 7, Names: 60, SnapshotFile: path})
	if err == nil {
		t.Fatal("corrupt snapshot must fail the open")
	}
}

// bannerTable lists every host's banner by host name.
func bannerTable(s *crawler.Survey) map[string]string {
	out := make(map[string]string, s.Graph.NumHosts())
	for id, h := range s.Graph.Hosts() {
		out[h] = s.HostBanner(int32(id))
	}
	return out
}

// vulnTable lists the exploits of every vulnerable host by host name.
func vulnTable(s *crawler.Survey) map[string][]vulndb.Vuln {
	out := make(map[string][]vulndb.Vuln)
	for id, h := range s.Graph.Hosts() {
		if vs := s.HostVulns(int32(id)); len(vs) > 0 {
			out[h] = vs
		}
	}
	return out
}

// restoreAllocMargin is how many more allocations restoring an
// 8000-name monitor may make than restoring a 2000-name one. A restore
// reads the name list and the per-chain name lists off the file's
// sorted tables and leaves the chain index to the first Add, so what
// is left to grow with the corpus is the hash indexes' table count.
const restoreAllocMargin = 200

// TestRestoreAllocsFlatInCorpus restores a saved monitor of each size
// and counts the allocations from OpenWorld to its first name list.
// A restore that rebuilt per-name or per-chain state from hash maps
// would allocate thousands more at the larger corpus.
func TestRestoreAllocsFlatInCorpus(t *testing.T) {
	ctx := context.Background()
	restoreAllocs := func(names int) float64 {
		world, err := NewWorld(Options{Seed: 5, Names: names})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "session.snap")
		m, err := OpenWorld(ctx, world, Options{SnapshotFile: path})
		if err != nil {
			t.Fatal(err)
		}
		// Two batches: the first lands in the base table, the second in
		// the versioned one.
		half := len(world.Corpus) / 2
		for _, batch := range [][]string{world.Corpus[:half], world.Corpus[half:]} {
			if _, err := m.Add(ctx, batch...); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		// Restored sessions are not closed: Close would save again.
		return testing.AllocsPerRun(3, func() {
			r, err := OpenWorld(ctx, world, Options{SnapshotFile: path})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(r.At().Names()); got == 0 || r.Queries() != 0 {
				t.Fatalf("restored %d names with %d queries", got, r.Queries())
			}
		})
	}
	small, large := restoreAllocs(2000), restoreAllocs(8000)
	t.Logf("restore allocations: %.0f at 2000 names, %.0f at 8000", small, large)
	if large > small+restoreAllocMargin {
		t.Fatalf("restoring 8000 names allocates %.0f, %.0f more than 2000 names (margin %d)", large, large-small, restoreAllocMargin)
	}
}
