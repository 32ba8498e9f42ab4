package delta

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/mincut"
)

// computeVia runs one computation path explicitly, bypassing Compute's
// path selection, so the equivalence property can compare them.
func computeVia(t *testing.T, old, new *crawler.Survey, general bool) *Delta {
	t.Helper()
	d := &Delta{FromGen: genOf(old), ToGen: genOf(new)}
	e := &evaluator{old: old, new: new,
		cuts: make(map[cutKey]*mincut.Result), tcbs: make(map[[2]int32]tcbDiff)}
	var err error
	if general {
		err = computeGeneral(context.Background(), e, d)
	} else {
		err = computeIncremental(context.Background(), e, d)
	}
	if err != nil {
		t.Fatalf("compute (general=%v): %v", general, err)
	}
	d.Compared = new.Graph.NumNames() + len(d.NamesRemoved)
	normalize(d)
	return d
}

// vulnified packages g as a survey with a deterministic subset of its
// hosts vulnerable, so SafeInCut varies and cut equivalence is
// meaningful.
func vulnified(g *core.Graph) *crawler.Survey {
	fp := crawler.NewFingerprints()
	for id, h := range g.Hosts() {
		f := fnv.New32a()
		f.Write([]byte(h))
		if f.Sum32()%3 == 0 {
			fp.Set(int32(id), "BIND 8.2.4")
		}
	}
	return fp.Publish(g, nil, map[string]error{}, crawler.CrawlStats{}, nil)
}

// randWorld drives a core.Builder with a random but causally valid event
// stream across epochs: new zones and hosts, chains attaching
// immediately or epochs later (late attach), names completing, failing,
// re-completing, and re-chaining.
type randWorld struct {
	r *rand.Rand
	b *core.Builder

	zones     []string            // observed zone apexes
	zoneChain map[string][]string // apex -> its delegation chain (TLD-first)
	hosts     map[string]bool
	chainless []string          // interned hosts with no chain yet
	live      map[string]string // name -> zone its chain ends at
	failedSet []string

	zc, hc, nc int
}

func newRandWorld(seed int64) *randWorld {
	return &randWorld{
		r:         rand.New(rand.NewSource(seed)),
		b:         core.NewBuilder(0),
		zoneChain: map[string][]string{},
		hosts:     map[string]bool{},
		live:      map[string]string{},
	}
}

// newHosts invents 1..3 host names; each either gets its chain attached
// now or is left chainless for a later epoch (late attach).
func (w *randWorld) newHosts() []string {
	n := 1 + w.r.Intn(3)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(w.hosts) > 0 && w.r.Intn(3) == 0 {
			// Reuse an existing host (shared infrastructure).
			for h := range w.hosts {
				out = append(out, h)
				break
			}
			continue
		}
		w.hc++
		out = append(out, fmt.Sprintf("ns%d.example", w.hc))
	}
	return out
}

func (w *randWorld) chainFor() []string {
	if len(w.zones) == 0 || w.r.Intn(5) == 0 {
		return nil // grounded host / empty chain
	}
	apex := w.zones[w.r.Intn(len(w.zones))]
	return append(append([]string(nil), w.zoneChain[apex]...), apex)
}

func (w *randWorld) addZone() {
	w.zc++
	var apex string
	var chain []string
	if len(w.zones) == 0 || w.r.Intn(3) == 0 {
		apex = fmt.Sprintf("t%d", w.zc)
	} else {
		parent := w.zones[w.r.Intn(len(w.zones))]
		apex = fmt.Sprintf("d%d.%s", w.zc, parent)
		chain = append(append([]string(nil), w.zoneChain[parent]...), parent)
	}
	hosts := w.newHosts()
	w.b.ObserveZone(apex, hosts)
	w.zones = append(w.zones, apex)
	w.zoneChain[apex] = chain
	for _, h := range hosts {
		if w.hosts[h] {
			continue
		}
		w.hosts[h] = true
		if w.r.Intn(2) == 0 {
			w.b.ObserveChain(h, w.chainFor())
		} else {
			w.chainless = append(w.chainless, h)
		}
	}
}

// epoch mutates the world randomly and commits one generation.
func (w *randWorld) epoch(t *testing.T) *crawler.Survey {
	t.Helper()
	for i, n := 0, 1+w.r.Intn(3); i < n; i++ {
		w.addZone()
	}
	// Late attaches: chains arriving for hosts published epochs ago.
	for len(w.chainless) > 0 && w.r.Intn(2) == 0 {
		i := w.r.Intn(len(w.chainless))
		h := w.chainless[i]
		w.chainless = append(w.chainless[:i], w.chainless[i+1:]...)
		w.b.ObserveChain(h, w.chainFor())
	}
	// New names.
	for i, n := 0, 2+w.r.Intn(6); i < n; i++ {
		w.nc++
		apex := w.zones[w.r.Intn(len(w.zones))]
		name := fmt.Sprintf("w%d.%s", w.nc, apex)
		w.b.Complete(name, append(append([]string(nil), w.zoneChain[apex]...), apex))
		w.live[name] = apex
	}
	// Re-chain, fail, and resurrect existing names.
	for name := range w.live {
		switch w.r.Intn(8) {
		case 0:
			apex := w.zones[w.r.Intn(len(w.zones))]
			w.b.Complete(name, append(append([]string(nil), w.zoneChain[apex]...), apex))
			w.live[name] = apex
		case 1:
			w.b.Fail(name, fmt.Errorf("synthetic failure"))
			delete(w.live, name)
			w.failedSet = append(w.failedSet, name)
		}
	}
	if len(w.failedSet) > 0 && w.r.Intn(2) == 0 {
		i := w.r.Intn(len(w.failedSet))
		name := w.failedSet[i]
		w.failedSet = append(w.failedSet[:i], w.failedSet[i+1:]...)
		apex := w.zones[w.r.Intn(len(w.zones))]
		w.b.Complete(name, append(append([]string(nil), w.zoneChain[apex]...), apex))
		w.live[name] = apex
	}
	return vulnified(w.b.FinishEpoch())
}

// TestIncrementalMatchesBruteForce is the PR's equivalence property: for
// randomized worlds and random Add sequences, the Delta between any two
// generations g1 < g2 is identical whether computed incrementally (the
// chain-id/stamp shortcut over the shared store) or by brute force
// (re-deriving every name's TCB and min-cut from both views and
// comparing by name).
func TestIncrementalMatchesBruteForce(t *testing.T) {
	sawChanged, sawAdded, sawRemoved, sawRechained := false, false, false, false
	for seed := int64(1); seed <= 6; seed++ {
		w := newRandWorld(seed)
		var gens []*crawler.Survey
		for e := 0; e < 6; e++ {
			gens = append(gens, w.epoch(t))
		}
		for i := 0; i < len(gens); i++ {
			for j := i + 1; j < len(gens); j++ {
				inc := computeVia(t, gens[i], gens[j], false)
				brute := computeVia(t, gens[i], gens[j], true)
				if !reflect.DeepEqual(inc, brute) {
					t.Fatalf("seed %d, gens %d->%d: incremental and brute-force deltas differ\nincremental: %+v\nbrute force: %+v",
						seed, i+1, j+1, inc, brute)
				}
				sawChanged = sawChanged || len(inc.Changed) > 0
				sawAdded = sawAdded || len(inc.NamesAdded) > 0
				sawRemoved = sawRemoved || len(inc.NamesRemoved) > 0
				for _, c := range inc.Changed {
					sawRechained = sawRechained || c.ChainChanged
				}
			}
		}
	}
	// The property is vacuous if the random worlds never drift.
	if !sawChanged || !sawAdded || !sawRemoved || !sawRechained {
		t.Fatalf("random worlds did not exercise the delta space: changed=%v added=%v removed=%v rechained=%v",
			sawChanged, sawAdded, sawRemoved, sawRechained)
	}
}

// TestComputeSelectsIncremental checks Compute's path selection: same
// store uses the incremental path (asserted via equality with it), and
// the shortcut diffs identical generations to an empty delta.
func TestComputeSelectsIncremental(t *testing.T) {
	w := newRandWorld(42)
	g1 := w.epoch(t)
	g2 := w.epoch(t)
	got, err := Compute(context.Background(), g1, g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := computeVia(t, g1, g2, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Compute = %+v, want incremental %+v", got, want)
	}

	// A generation diffed against itself is empty.
	self, err := Compute(context.Background(), g2, g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !self.Empty() {
		t.Fatalf("self-delta not empty: %+v", self)
	}
}

// buildWorld drives one builder through a fixed scenario and returns its
// finished survey.
func buildWorld(mutate func(b *core.Builder)) *crawler.Survey {
	b := core.NewBuilder(0)
	mutate(b)
	return crawler.FromGraph(b.Finish())
}

// TestZombieDetection exercises the cross-crawl path on a hand-built
// delegation change: host hz is dropped from zone a.t1 between the
// generations but zone b.t1 still delegates through it (a
// delegation-removed zombie), and host h2 stops answering (its chain no
// longer resolves) while names still trust it.
func TestZombieDetection(t *testing.T) {
	old := buildWorld(func(b *core.Builder) {
		b.ObserveZone("t1", []string{"h1"})
		b.ObserveChain("h1", []string{"t1"})
		b.ObserveZone("a.t1", []string{"hz", "h2"})
		b.ObserveChain("hz", []string{"t1"})
		b.ObserveChain("h2", []string{"t1"})
		b.ObserveZone("b.t1", []string{"hz"})
		b.Complete("w.a.t1", []string{"t1", "a.t1"})
		b.Complete("w.b.t1", []string{"t1", "b.t1"})
	})
	new := buildWorld(func(b *core.Builder) {
		b.ObserveZone("t1", []string{"h1"})
		b.ObserveChain("h1", []string{"t1"})
		b.ObserveZone("a.t1", []string{"h2"}) // hz dropped
		// h2's chain no longer resolves: stopped answering.
		b.ObserveZone("b.t1", []string{"hz"})
		b.ObserveChain("hz", []string{"t1"})
		b.Complete("w.a.t1", []string{"t1", "a.t1"})
		b.Complete("w.b.t1", []string{"t1", "b.t1"})
	})

	d, err := Compute(context.Background(), old, new, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Zombies) != 2 {
		t.Fatalf("zombies = %+v, want hz (delegation-removed) and h2 (stopped-answering)", d.Zombies)
	}
	byHost := map[string]Zombie{}
	for _, z := range d.Zombies {
		byHost[z.Host] = z
	}
	hz, ok := byHost["hz"]
	if !ok || hz.Kind != DelegationRemoved || !reflect.DeepEqual(hz.Zones, []string{"a.t1"}) || hz.Names == 0 {
		t.Errorf("hz zombie = %+v, want delegation-removed via a.t1 with trusting names", hz)
	}
	h2, ok := byHost["h2"]
	if !ok || h2.Kind != StoppedAnswering || h2.Names == 0 {
		t.Errorf("h2 zombie = %+v, want stopped-answering with trusting names", h2)
	}

	// The delegation change itself must surface as a zone change and as
	// w.a.t1's TCB losing hz.
	if len(d.ZoneChanges) != 1 || d.ZoneChanges[0].Apex != "a.t1" ||
		!reflect.DeepEqual(d.ZoneChanges[0].NSRemoved, []string{"hz"}) {
		t.Errorf("zone changes = %+v, want a.t1 -hz", d.ZoneChanges)
	}
	var waChange *NameChange
	for i := range d.Changed {
		if d.Changed[i].Name == "w.a.t1" {
			waChange = &d.Changed[i]
		}
	}
	if waChange == nil || !contains(waChange.TCBRemoved, "hz") {
		t.Errorf("w.a.t1 change = %+v, want TCBRemoved to include hz", waChange)
	}
}

func contains(s []string, want string) bool {
	for _, v := range s {
		if v == want {
			return true
		}
	}
	return false
}

// TestGrewFilter checks the /watch primitive: Grew selects names whose
// TCB expanded by at least the threshold.
func TestGrewFilter(t *testing.T) {
	d := &Delta{Changed: []NameChange{
		{Name: "a", OldTCB: 10, NewTCB: 10},
		{Name: "b", OldTCB: 10, NewTCB: 12},
		{Name: "c", OldTCB: 10, NewTCB: 15},
	}}
	if got := d.Grew(3); len(got) != 1 || got[0].Name != "c" {
		t.Errorf("Grew(3) = %+v, want just c", got)
	}
	if got := d.Grew(0); len(got) != 2 {
		t.Errorf("Grew(0) = %+v, want b and c (minimum growth clamps to 1)", got)
	}
}

// TestIncrementalNoChangeAllocGate is the runtime complement of the
// //lint:hotpath annotation on computeIncremental: diffing a generation
// against itself — the steady-state monitor case where nothing drifted —
// must cost a bounded handful of allocations (the evaluator's and
// delta's own headers plus three empty tracking maps), independent of
// how large the survey is.
//
// alloc-gate: dnstrust/internal/delta.computeIncremental
func TestIncrementalNoChangeAllocGate(t *testing.T) {
	w := newRandWorld(7)
	var s *crawler.Survey
	for e := 0; e < 4; e++ {
		s = w.epoch(t)
	}
	allocs := testing.AllocsPerRun(100, func() {
		d := &Delta{FromGen: genOf(s), ToGen: genOf(s)}
		e := &evaluator{old: s, new: s,
			cuts: make(map[cutKey]*mincut.Result), tcbs: make(map[[2]int32]tcbDiff)}
		if err := computeIncremental(context.Background(), e, d); err != nil {
			t.Fatal(err)
		}
		if d.Compared != 0 && len(d.Changed) != 0 {
			t.Fatal("self-diff reported drift")
		}
	})
	if allocs > 10 {
		t.Errorf("no-change incremental diff allocates %.1f objects, want <= 10 (size-independent)", allocs)
	}
}
