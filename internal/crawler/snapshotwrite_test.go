package crawler

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/topology"
)

// TestEngineSnapshotWriteMatchesReference holds the engine's own
// sections (crawler/meta, and shard/meta with its allocation-free corpus
// hash) to the reference encoder's bytes across Adds that probe new
// hosts, an Add whose probe is cancelled part-way (leaving the banner
// column as it was, probed again by the next Add), back-to-back writes,
// and write → restore → write with the restored engine adding on.
func TestEngineSnapshotWriteMatchesReference(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 41, Names: 900})
	if err != nil {
		t.Fatal(err)
	}
	tr := world.Registry.Source()
	inner := world.Registry.ProbeFunc(tr)
	// probe cancels the context of the Add in flight at its cancelAt-th
	// call.
	var mu sync.Mutex
	var probes, cancelAt int
	var cancel context.CancelFunc
	probe := func(ctx context.Context, host string) (string, error) {
		mu.Lock()
		probes++
		if probes == cancelAt {
			cancel()
		}
		mu.Unlock()
		return inner(ctx, host)
	}
	cfg := Config{Workers: 4, ShardName: "s0"}
	open := func() *Engine {
		r, err := world.Registry.Resolver(tr)
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(r, probe, cfg)
	}

	check := func(e *Engine, when string) []byte {
		t.Helper()
		var got bytes.Buffer
		if err := e.WriteSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		e.mu.Lock()
		err := writeEngineSectionsReference(e, snapshot.NewWriter(&want))
		e.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		gf, err := snapshot.Read(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		wf, err := snapshot.Read(bytes.NewReader(want.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range []string{"crawler/meta", snapshot.ShardMetaSection} {
			if !bytes.Equal(gf.Section(sec), wf.Section(sec)) {
				t.Fatalf("%s (generation %d): section %s differs from the reference (%d bytes, reference %d)",
					when, e.Generation(), sec, len(gf.Section(sec)), len(wf.Section(sec)))
			}
		}
		var again bytes.Buffer
		if err := e.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("%s (generation %d): a second write differs", when, e.Generation())
		}
		return got.Bytes()
	}
	add := func(e *Engine, names []string) {
		t.Helper()
		if _, err := e.Add(context.Background(), names...); err != nil {
			t.Fatal(err)
		}
	}

	corpus := world.Corpus
	e := open()
	defer e.Close()
	check(e, "fresh engine")
	add(e, corpus[:400])
	check(e, "first batch")
	next := 400
	for ; next < 520; next += 30 {
		add(e, corpus[next:next+30])
		check(e, "small batch")
	}

	// An Add whose probe is cancelled after three hosts: it commits
	// nothing, and the banners it got stay out of the column.
	ctx, c := context.WithCancel(context.Background())
	mu.Lock()
	cancel, cancelAt = c, probes+3
	mu.Unlock()
	if _, err := e.Add(ctx, corpus[next:next+150]...); err == nil {
		t.Fatal("the Add whose probe was cancelled committed")
	}
	c()
	next += 150
	e.mu.Lock()
	probed, hosts := len(e.fp.banners), e.b.LastGraph().NumHosts()
	e.mu.Unlock()
	if probed != e.View().Graph.NumHosts() || probed == hosts {
		t.Fatalf("after a cancelled probe the column covers %d hosts, want the %d committed of %d",
			probed, e.View().Graph.NumHosts(), hosts)
	}
	check(e, "after a cancelled probe")
	add(e, corpus[next:next+30])
	next += 30
	check(e, "after probing again")

	data := check(e, "before restore")
	path := filepath.Join(t.TempDir(), "e.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewEngineFromSnapshot(r, probe, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := check(re, "restored"); !bytes.Equal(got, data) {
		t.Fatal("write → restore → write differs")
	}
	for ; next+30 <= len(corpus) && next < 800; next += 30 {
		add(re, corpus[next:next+30])
		check(re, "restored engine adding on")
	}
	add(re, corpus[:30]) // names already surveyed: a generation that changes nothing
	check(re, "re-add")
}

// TestWriteSnapshotDuringAdd races WriteSnapshot against Adds and
// against a proxy resolving never-seen names through the engine's
// walker (Walker.Cut discoveries queued for the next Add). A write runs
// between two Adds, so every file of one generation must carry the same
// bytes as the write the test takes right after that generation's Add
// — whose engine sections must match the reference encoder — and every
// file must restore to that generation's names.
func TestWriteSnapshotDuringAdd(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 43, Names: 700})
	if err != nil {
		t.Fatal(err)
	}
	src := world.Registry.Source()
	r, err := world.Registry.Resolver(src)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(r, world.Registry.ProbeFunc(src), Config{Workers: 4, ShardName: "s0"})
	defer e.Close()
	ctx := context.Background()
	corpus := world.Corpus

	var mu sync.Mutex
	files := map[int64][]byte{} // the first file written at each generation
	writes := 0
	write := func() error {
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf); err != nil {
			return err
		}
		f, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		meta, _, err := snapshot.ReadShardMeta(f)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		writes++
		if first, ok := files[meta.Generation]; !ok {
			files[meta.Generation] = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Errorf("two writes at generation %d differ", meta.Generation)
		}
		return nil
	}

	if err := write(); err != nil { // generation 0
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := write(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr, err := resolver.New(src, resolver.Config{Roots: world.Registry.RootServers()})
		if err != nil {
			t.Error(err)
			return
		}
		w := e.View().Walker
		for _, n := range corpus[600:] {
			select {
			case <-stop:
				return
			default:
			}
			rr.ResolveFrom(ctx, w, n, dnswire.TypeA)
		}
	}()

	names := map[int64]int{0: 0}
	for lo := 0; lo < 600; lo += 60 {
		s, err := e.Add(ctx, corpus[lo:lo+60]...)
		if err != nil {
			t.Fatal(err)
		}
		names[s.Stats.Generation] = len(s.Names)
		if err := write(); err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		e.mu.Lock()
		err = writeEngineSectionsReference(e, snapshot.NewWriter(&ref))
		e.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		rf, err := snapshot.Read(bytes.NewReader(ref.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		f, err := snapshot.Read(bytes.NewReader(files[s.Stats.Generation]))
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range []string{"crawler/meta", snapshot.ShardMetaSection} {
			if !bytes.Equal(f.Section(sec), rf.Section(sec)) {
				t.Fatalf("generation %d: section %s differs from the reference", s.Stats.Generation, sec)
			}
		}
	}
	close(stop)
	wg.Wait()

	dir := t.TempDir()
	for gen, data := range files {
		path := filepath.Join(dir, "gen.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := NewEngineFromSnapshot(r, nil, Config{}, path)
		if err != nil {
			t.Fatalf("generation %d does not restore: %v", gen, err)
		}
		if got := len(re.View().Names); re.Generation() != gen || got != names[gen] {
			t.Errorf("generation %d restored as generation %d with %d names, want %d", gen, re.Generation(), got, names[gen])
		}
		re.Close()
	}
	t.Logf("%d writes over %d generations", writes, len(files))
}
