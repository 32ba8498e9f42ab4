package view

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dnstrust/internal/delta"
)

// Timeline publishes an owner's committed views: a lock-free pointer to
// the current one plus a bounded ring of the most recent ones, oldest
// to newest. One writer commits (the owner serializes its commits);
// any number of readers may call the other methods meanwhile.
type Timeline struct {
	cur atomic.Pointer[View]

	// mu guards views. It is the ring's own lock, never the owner's
	// commit lock, so readers never block behind an in-flight crawl or
	// merge round.
	mu     sync.Mutex
	retain int
	views  []*View
}

// NewTimeline returns an empty timeline retaining the retain most
// recent views (at least one).
func NewTimeline(retain int) *Timeline {
	return &Timeline{retain: max(retain, 1)}
}

// Commit publishes v as the current view and appends it to the ring.
// The pointer and the ring update inside one critical section: anyone
// who observed the new generation via Current and then asks Views or
// Between is guaranteed to find it there. When the append pushed a view
// out, Commit returns the oldest view still retained — no retained view
// diffs from below it, so the owner can prune older change journals (a
// caller still holding an evicted view gets the by-name diff path:
// correct, just not the shortcut). Otherwise it returns nil.
func (t *Timeline) Commit(v *View) (oldest *View) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.Store(v)
	t.views = append(t.views, v)
	if len(t.views) <= t.retain {
		return nil
	}
	t.views = append([]*View(nil), t.views[len(t.views)-t.retain:]...)
	return t.views[0]
}

// Current returns the latest committed view, or nil before the first
// Commit. It never blocks.
func (t *Timeline) Current() *View { return t.cur.Load() }

// Views returns the retained views, oldest to newest (the newest is
// Current's).
func (t *Timeline) Views() []*View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*View(nil), t.views...)
}

// Between computes the typed trust delta from generation from to
// generation to; both must still be retained. Diffing a generation
// against itself returns an empty delta.
func (t *Timeline) Between(ctx context.Context, from, to int64) (*delta.Delta, error) {
	return Between(ctx, t.Views(), from, to)
}

// Between is Timeline.Between over an already-taken Views snapshot, for
// a reader that resolved from and to against that same snapshot.
func Between(ctx context.Context, views []*View, from, to int64) (*delta.Delta, error) {
	if from > to {
		return nil, fmt.Errorf("dnstrust: Between(%d, %d): from exceeds to", from, to)
	}
	var vf, vt *View
	for _, v := range views {
		if v.Generation() == from {
			vf = v
		}
		if v.Generation() == to {
			vt = v
		}
	}
	if vf == nil || vt == nil {
		lo, hi := int64(-1), int64(-1)
		if len(views) > 0 {
			lo, hi = views[0].Generation(), views[len(views)-1].Generation()
		}
		return nil, fmt.Errorf("dnstrust: generations %d..%d not retained (timeline holds %d..%d; raise Retain)", from, to, lo, hi)
	}
	return vt.DiffContext(ctx, vf)
}
