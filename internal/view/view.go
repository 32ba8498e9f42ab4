// Package view holds the one generation-stamped read type of the
// project — the immutable View a single Monitor and a merged fleet
// Coordinator both commit — and the Timeline that retains the most
// recent ones.
package view

import (
	"context"
	"errors"
	"sync"

	"dnstrust/internal/analysis"
	"dnstrust/internal/audit"
	"dnstrust/internal/crawler"
	"dnstrust/internal/delta"
	"dnstrust/internal/hijack"
	"dnstrust/internal/mincut"
)

// ShardStatus is one shard's health as observed at a fleet commit.
type ShardStatus struct {
	// Name is the shard's configured name.
	Name string `json:"name"`
	// Generation is the last shard generation merged into the view
	// (-1 when the shard has never been fetched successfully).
	Generation int64 `json:"generation"`
	// Stale reports that the shard's fetch failed at this commit, so
	// its contribution is from an earlier round (or missing entirely).
	Stale bool `json:"stale"`
	// Err is the last fetch error ("" when healthy).
	Err string `json:"err,omitempty"`
	// Fetches and Failures count fetch attempts over the coordinator's
	// lifetime.
	Fetches  int64 `json:"fetches"`
	Failures int64 `json:"failures"`
}

// Merge is what only a merged fleet view knows about its commit; the
// zero value marks a single monitor's view. All slices are sorted; the
// View takes ownership of them.
type Merge struct {
	// Stale names the shards whose fetch failed at the commit.
	Stale []string
	// Shards is every shard's status at the commit (never empty).
	Shards []ShardStatus
	// Changed names what moved since the previous committed view.
	Changed []string
}

// View is one committed generation of a survey — a single monitor's or
// a fleet's merged one: an immutable dependency graph plus the full
// read API of the paper's analyses. All methods are safe for concurrent
// use, and everything a View returns stays valid forever — later
// commits publish new Views instead of mutating old ones (snapshot
// isolation), and retained Views share the store copy-on-write.
//
// Whole-survey analyses (Summary, Bottlenecks) are computed once per
// View and cached; per-chain work inside them is additionally served
// from the owner's chain memo, which persists across generations, so
// on a View taken after a small commit both are near-free.
//
//lint:immutable
type View struct {
	survey  *crawler.Survey
	memo    *analysis.ChainMemo
	popular []string
	merge   Merge

	summaryOnce sync.Once
	summary     *analysis.Summary

	botMu    sync.Mutex
	botStats *analysis.BottleneckStats
}

// New builds the view of one committed survey. memo is the owner's
// cross-generation chain memo; popular is the world's popular-site list
// (nil when there is no world); merge carries a fleet commit's facts
// and is zero for a single monitor.
func New(s *crawler.Survey, memo *analysis.ChainMemo, popular []string, merge Merge) *View {
	return &View{survey: s, memo: memo, popular: popular, merge: merge}
}

// Generation reports which commit produced this view (0 = a monitor's
// empty pre-crawl view).
func (v *View) Generation() int64 { return v.survey.Stats.Generation }

// Survey exposes the underlying crawl dataset (graph, banners,
// vulnerabilities, engine stats). It is immutable.
func (v *View) Survey() *crawler.Survey { return v.survey }

// Memo exposes the chain memo the view's analyses are served from, for
// analyses beyond the view's own methods.
func (v *View) Memo() *analysis.ChainMemo { return v.memo }

// Names lists the successfully surveyed names, sorted. The slice is a
// defensive copy: callers may keep or modify it freely. Use NumNames
// when only the count is needed.
func (v *View) Names() []string { return append([]string(nil), v.survey.Names...) }

// NumNames reports the number of successfully surveyed names without
// copying the name list.
func (v *View) NumNames() int { return v.survey.Graph.NumNames() }

// Popular is the world's redundancy-seeking "popular site" subset (the
// paper's Alexa top 500), independent of what has been surveyed so far.
// The slice is a defensive copy.
func (v *View) Popular() []string { return append([]string(nil), v.popular...) }

// Merged reports whether this is a fleet's merged view, carrying shard
// status, a stale set and a change journal.
func (v *View) Merged() bool { return v.merge.Shards != nil }

// Stale reports whether any shard's contribution is stale: at least one
// fetch failed at this commit, so the view is a quorum-approved partial
// merge rather than a full one. A single-monitor view is never stale.
func (v *View) Stale() bool { return len(v.merge.Stale) > 0 }

// StaleShards returns the names of the shards serving stale data at
// this commit, sorted.
func (v *View) StaleShards() []string { return append([]string(nil), v.merge.Stale...) }

// Shards returns every shard's status at the commit; nil on a
// single-monitor view.
func (v *View) Shards() []ShardStatus { return append([]ShardStatus(nil), v.merge.Shards...) }

// Changed returns the names whose chain mapping changed since the
// previous committed fleet generation, sorted — the fleet's change
// journal, ready for blast-radius and push-delta consumers. The first
// generation reports every name; a single-monitor view reports nil.
func (v *View) Changed() []string { return append([]string(nil), v.merge.Changed...) }

// Diff computes the typed trust delta from an older view to this one:
// what drifted — TCB members gained and lost per name, bottleneck
// min-cuts reshaped, zones and chains appearing or vanishing, zombie
// dependencies left behind. Views committed by the same owner diff
// incrementally off the shared store's interned ids and epoch stamps
// (identical chains cost nothing); views from unrelated sessions — two
// replayed recordings, say — are compared by name, which is also where
// zombies can surface.
func (v *View) Diff(older *View) (*delta.Delta, error) {
	return v.DiffContext(context.Background(), older)
}

// DiffContext is Diff honoring ctx: cancellation is checked between the
// per-chain min-cut computations of a large delta, so an abandoned
// request stops burning CPU.
func (v *View) DiffContext(ctx context.Context, older *View) (*delta.Delta, error) {
	if older == nil {
		return nil, errors.New("dnstrust: Diff of a nil view")
	}
	return delta.Compute(ctx, older.survey, v.survey,
		delta.Options{OldMemo: older.memo, NewMemo: v.memo})
}

// TCB returns the trusted computing base of a surveyed name, sorted.
func (v *View) TCB(name string) ([]string, error) {
	return v.survey.Graph.TCB(name)
}

// DOT renders a surveyed name's delegation graph in Graphviz format.
func (v *View) DOT(name string) (string, error) {
	return v.survey.Graph.DOT(name)
}

// Summary computes the headline statistics over this view's whole
// corpus. The result is computed once per View (per-chain scans served
// from the cross-generation memo) and shared — treat it as read-only.
// The pass runs on the graph's chain-id column, with no per-name store
// lookup: at 45 000 names a warm Summary takes about 30–50 ms and a cold
// one 50–80 ms on a 2-vCPU box.
func (v *View) Summary() *analysis.Summary {
	v.summaryOnce.Do(func() {
		v.summary = analysis.SummarizeMemo(v.survey, v.survey.Names, v.memo)
	})
	return v.summary
}

// Bottleneck runs the §3.2 min-cut analysis for one name, served from
// the chain memo when any name sharing the delegation chain was already
// analyzed in this or an untouched earlier generation.
func (v *View) Bottleneck(name string) (*mincut.Result, error) {
	return analysis.BottleneckOfMemo(v.survey, name, v.memo)
}

// Bottlenecks runs the Figure 7 min-cut analysis over the whole corpus.
// A successful result is computed once per View and shared (treat it as
// read-only); per-chain cuts additionally persist in the memo across
// generations. Errors — a cancelled ctx, typically — are never cached:
// a later call with a live context recomputes, resuming from whatever
// per-chain results the aborted pass already stored.
func (v *View) Bottlenecks(ctx context.Context) (*analysis.BottleneckStats, error) {
	v.botMu.Lock()
	defer v.botMu.Unlock()
	if v.botStats != nil {
		return v.botStats, nil
	}
	stats, err := analysis.BottlenecksMemo(ctx, v.survey, v.survey.Names, 0, v.memo)
	if err != nil {
		return nil, err
	}
	v.botStats = stats
	return stats, nil
}

// Attack builds a hijack scenario with the given compromised and downed
// servers against this view's dependency graph.
func (v *View) Attack(compromised, downed []string) (*hijack.Attack, error) {
	return hijack.New(v.survey.Graph, compromised, downed)
}

// Audit runs the §5 diligence check on a surveyed name: where its trust
// goes and which dependencies are dangerous.
func (v *View) Audit(name string) ([]audit.Finding, error) {
	return audit.Name(v.survey, name, audit.Policy{})
}
