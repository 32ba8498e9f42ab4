package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dnstrust"
	"dnstrust/internal/fleet"
	"dnstrust/internal/snapshot"
)

// monitorSource serves a shard Monitor's epochs to the coordinator the
// way the HTTP source does, minus the socket: the shard writes its
// snapshot, the bytes are read back and decoded. An unchanged shard
// answers "nothing newer", as a 304 would.
type monitorSource struct {
	m *dnstrust.Monitor

	mu      sync.Mutex
	fetches []time.Duration // write + read + decode, per changed fetch
}

func (s *monitorSource) Fetch(_ context.Context, haveGen int64) (*fleet.Epoch, error) {
	if s.m.Generation() <= haveGen {
		return nil, nil
	}
	start := time.Now()
	var buf bytes.Buffer
	if err := s.m.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	f, err := snapshot.Read(&buf)
	if err != nil {
		return nil, err
	}
	ep, err := fleet.DecodeEpoch(f)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.fetches = append(s.fetches, time.Since(start))
	s.mu.Unlock()
	return ep, nil
}

// fleetState is the fleet between its first commit and its report.
type fleetState struct {
	ring   *fleet.Ring
	shards []string
	mons   []*dnstrust.Monitor
	srcs   []*monitorSource
	co     *fleet.Coordinator

	visible, adds, commits []float64
	stale                  int
}

// fleet boots a 3-shard fleet over the same world: ring-partitioned
// in-process Monitors crawl the round corpus and a Coordinator merges
// them. The rounds then measure how long a new name takes to become
// visible in the merged view.
func (r *runner) fleet(ctx context.Context) error {
	f := &fleetState{ring: fleet.NewRing([]string{"s0", "s1", "s2"}, 0)}
	f.shards = f.ring.Shards()
	corpus := r.roundCorpus()
	parts := f.ring.Assign(corpus)
	shards := make([]fleet.Shard, len(f.shards))
	for i, name := range f.shards {
		m, err := dnstrust.OpenWorld(ctx, r.world, dnstrust.Options{Workers: runtime.NumCPU(), ShardName: name})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		r.mons = append(r.mons, m)
		f.mons = append(f.mons, m)
		if _, err := m.Add(ctx, parts[i]...); err != nil {
			return fmt.Errorf("fleet: shard %s crawl: %w", name, err)
		}
		f.srcs = append(f.srcs, &monitorSource{m: m})
		shards[i] = fleet.Shard{Name: name, Source: f.srcs[i]}
	}
	co, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	f.co = co
	start := time.Now()
	fv, err := co.Commit(ctx)
	if err != nil {
		return fmt.Errorf("fleet: first commit: %w", err)
	}
	r.layer("fleet.first_commit_ms", ms(time.Since(start)), 1)
	r.res.ops.check(fv.NumNames() == len(corpus) && !fv.Stale(),
		"fleet: first merged view holds %d names (stale=%v), want %d", fv.NumNames(), fv.Stale(), len(corpus))
	r.fl = f
	return nil
}

// fleetRound is {route a batch by the ring, shard Add, Commit}, timed
// until the merged view holds the batch.
func (r *runner) fleetRound(ctx context.Context, i int, batch []string) error {
	f := r.fl
	if len(r.roundCorpus()) == len(r.crawled) {
		// At full scale the analyst round before this one has allocated a
		// good part of the heap's size; at side scale it has not, and a
		// collection costs more than the round.
		settle()
	}
	start := time.Now()
	for si, names := range f.ring.Assign(batch) {
		if len(names) == 0 {
			continue
		}
		if _, err := f.mons[si].Add(ctx, names...); err != nil {
			return fmt.Errorf("fleet round %d: shard %s: %w", i, f.shards[si], err)
		}
	}
	added := time.Since(start)
	fv, err := f.co.Commit(ctx)
	if err != nil {
		return fmt.Errorf("fleet round %d: %w", i, err)
	}
	total := time.Since(start)
	for _, name := range batch {
		_, err := fv.TCB(name)
		r.res.ops.check(err == nil, "fleet round %d: %s missing from the merged view: %v", i, name, err)
	}
	if fv.Stale() {
		f.stale++
	}
	f.visible = append(f.visible, ms(total))
	f.adds = append(f.adds, ms(added))
	f.commits = append(f.commits, ms(total-added))
	return nil
}

func (r *runner) fleetReport(ctx context.Context) error {
	f := r.fl
	r.e2e("fleet_add_visible_ms", median(f.visible), len(f.visible))
	r.layer("fleet.shard_add_ms", mean(f.adds), len(f.adds))
	r.layer("fleet.commit_ms", mean(f.commits), len(f.commits))
	r.layer("fleet.stale_rounds", float64(f.stale), len(f.visible))
	var fetches []time.Duration
	for _, s := range f.srcs {
		fetches = append(fetches, s.fetches...)
	}
	r.layer("fleet.fetch_decode_ms", mean(durationsMs(fetches)), len(fetches))
	if r.rc.trace {
		return r.fleetMerge(ctx, f.shards, f.srcs)
	}
	return nil
}

// fleetMerge isolates the coordinator's merge from the fetch: every
// shard's current epoch is decoded beforehand and handed over by a
// FixedSource, so a fresh coordinator's first Commit is id-remapping
// and union build only.
func (r *runner) fleetMerge(ctx context.Context, shardNames []string, srcs []*monitorSource) error {
	shards := make([]fleet.Shard, len(srcs))
	for i, s := range srcs {
		ep, err := s.Fetch(ctx, -1)
		if err != nil {
			return fmt.Errorf("fleet merge: %w", err)
		}
		shards[i] = fleet.Shard{Name: shardNames[i], Source: &fleet.FixedSource{Epoch: ep}}
	}
	co, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		return fmt.Errorf("fleet merge: %w", err)
	}
	start := time.Now()
	fv, err := co.Commit(ctx)
	if err != nil {
		return fmt.Errorf("fleet merge: %w", err)
	}
	r.layer("fleet.merge_ns_per_name", float64(time.Since(start))/float64(fv.NumNames()), fv.NumNames())
	return nil
}
