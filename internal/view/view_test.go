package view_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/view"
)

// genView is a view whose only content is its generation stamp — all
// the timeline ever reads.
func genView(gen int64) *view.View {
	s := &crawler.Survey{Stats: crawler.CrawlStats{Generation: gen}}
	return view.New(s, analysis.NewChainMemo(), nil, view.Merge{})
}

func gens(views []*view.View) []int64 {
	out := make([]int64, len(views))
	for i, v := range views {
		out[i] = v.Generation()
	}
	return out
}

// TestDiffNilOlder: both kinds of view reject a nil older view with the
// same error (the merged kind used to dereference it).
func TestDiffNilOlder(t *testing.T) {
	s := &crawler.Survey{}
	for name, v := range map[string]*view.View{
		"monitor": view.New(s, analysis.NewChainMemo(), nil, view.Merge{}),
		"merged":  view.New(s, analysis.NewChainMemo(), nil, view.Merge{Shards: []view.ShardStatus{{Name: "s0"}}}),
	} {
		if v.Merged() != (name == "merged") {
			t.Errorf("%s view: Merged() = %v", name, v.Merged())
		}
		for _, diff := range []func() error{
			func() error { _, err := v.Diff(nil); return err },
			func() error { _, err := v.DiffContext(context.Background(), nil); return err },
		} {
			if err := diff(); err == nil || err.Error() != "dnstrust: Diff of a nil view" {
				t.Errorf("%s view: Diff(nil) = %v, want the nil-view error", name, err)
			}
		}
	}
}

// TestTimelineRetention: the ring keeps the retain most recent views in
// commit order, and Commit hands back the oldest retained view exactly
// when it evicted one.
func TestTimelineRetention(t *testing.T) {
	tl := view.NewTimeline(3)
	if tl.Current() != nil || len(tl.Views()) != 0 {
		t.Fatal("a new timeline is not empty")
	}
	for g := int64(0); g < 6; g++ {
		v := genView(g)
		oldest := tl.Commit(v)
		if g < 3 && oldest != nil {
			t.Errorf("commit %d: reported an eviction (oldest=%d) below the bound", g, oldest.Generation())
		}
		if g >= 3 && (oldest == nil || oldest.Generation() != g-2) {
			t.Errorf("commit %d: oldest retained = %v, want generation %d", g, oldest, g-2)
		}
		if tl.Current() != v {
			t.Errorf("commit %d: Current is not the committed view", g)
		}
	}
	if got := gens(tl.Views()); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("retained generations = %v, want [3 4 5]", got)
	}
	one := view.NewTimeline(0)
	one.Commit(genView(1))
	if oldest := one.Commit(genView(2)); oldest == nil || oldest.Generation() != 2 || len(one.Views()) != 1 {
		t.Errorf("retain 0 must keep exactly the latest view; oldest=%v, %d retained", oldest, len(one.Views()))
	}
}

// TestTimelineBetweenErrors: a reversed range and a generation that fell
// out of the ring are refused with errors naming what is still held.
func TestTimelineBetweenErrors(t *testing.T) {
	tl := view.NewTimeline(2)
	for g := int64(1); g <= 4; g++ {
		tl.Commit(genView(g))
	}
	ctx := context.Background()
	if _, err := tl.Between(ctx, 4, 3); err == nil || !strings.Contains(err.Error(), "from exceeds to") {
		t.Errorf("Between(4, 3) = %v, want a from-exceeds-to error", err)
	}
	_, err := tl.Between(ctx, 1, 4)
	const want = "dnstrust: generations 1..4 not retained (timeline holds 3..4; raise Retain)"
	if err == nil || err.Error() != want {
		t.Errorf("Between(1, 4) = %v, want %q", err, want)
	}
	if _, err := view.NewTimeline(2).Between(ctx, 0, 0); err == nil || !strings.Contains(err.Error(), "holds -1..-1") {
		t.Errorf("Between on an empty timeline = %v, want a not-retained error", err)
	}
}

// TestTimelineCurrentIsRetained (run under -race): whatever generation a
// reader observes through Current is already in Views — the pointer and
// the ring commit in one critical section.
func TestTimelineCurrentIsRetained(t *testing.T) {
	const commits = 2000
	tl := view.NewTimeline(commits + 1) // nothing is evicted: generation g sits at index g
	tl.Commit(genView(0))
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				cur := tl.Current().Generation()
				held := gens(tl.Views())
				if int64(len(held)) <= cur || held[cur] != cur {
					t.Errorf("Current saw generation %d but Views holds only %d views", cur, len(held))
					return
				}
				if cur == commits {
					return
				}
			}
		}()
	}
	for g := int64(1); g <= commits; g++ {
		tl.Commit(genView(g))
	}
	wg.Wait()
}
