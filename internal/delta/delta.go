// Package delta computes typed trust deltas between two survey
// generations — the longitudinal measurement the paper's warning calls
// for: transitive trust *drifts*, a name's TCB grows silently as
// delegations change, and nobody notices until the added dependency is
// the one that gets hijacked. A Delta answers "what changed, and did my
// trust surface grow?" between any two Views.
//
// Two computation paths produce identical results:
//
//   - Same-store (incremental): generations committed by one Monitor
//     share a copy-on-write epoch store, so chain ids are stable and
//     every chain carries the epoch its dependency structure last
//     changed. The diff reads the builder's per-epoch change journal and
//     the chain stamps — identical chains diff to nothing in O(1), and a
//     small Add diffs a million-name survey by examining only the
//     touched names and late-changed chains.
//
//   - Foreign (by name): generations from unrelated crawls — two
//     recorded query logs replayed at different times, say — share no
//     intern space, so the diff compares name by name and zone by zone.
//     This is also where zombie dependencies surface: hosts still in
//     some name's TCB whose delegation was removed, or that stopped
//     answering, between the recordings.
package delta

import (
	"context"
	"sort"
	"strings"

	"dnstrust/internal/analysis"
	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/mincut"
)

// Delta is the typed trust drift between two survey generations. All
// slices are sorted (by name, apex, or host) and nil when empty.
//
//lint:immutable
type Delta struct {
	// FromGen and ToGen identify the compared generations.
	FromGen int64 `json:"from_gen"`
	ToGen   int64 `json:"to_gen"`

	// NamesAdded lists names surveyed in the newer generation only;
	// NamesRemoved lists names that vanished (including names whose walk
	// failed in the newer generation).
	NamesAdded   []string `json:"names_added,omitempty"`
	NamesRemoved []string `json:"names_removed,omitempty"`

	// Changed lists names present in both generations whose trust
	// surface moved: TCB members added or removed, the delegation chain
	// itself re-routed, or the min-cut bottleneck reshaped.
	Changed []NameChange `json:"changed,omitempty"`

	// ZonesAdded and ZonesRemoved list zone apexes present in only one
	// generation's dependency graph.
	ZonesAdded   []string `json:"zones_added,omitempty"`
	ZonesRemoved []string `json:"zones_removed,omitempty"`
	// ZoneChanges lists zones present in both generations whose NS host
	// set changed. Within one monitored session zone cuts are
	// first-observation-wins immutable, so these surface only when
	// diffing independent crawls (DiffLogs).
	ZoneChanges []ZoneChange `json:"zone_changes,omitempty"`

	// ChainsAdded and ChainsRemoved count distinct delegation chains (by
	// zone content) that became, or ceased to be, in use by any surveyed
	// name between the generations.
	ChainsAdded   int `json:"chains_added,omitempty"`
	ChainsRemoved int `json:"chains_removed,omitempty"`

	// Zombies lists stale dependencies in the newer generation: hosts
	// still inside at least one name's TCB whose delegation was removed,
	// or that stopped answering, since the older generation — the
	// dominant real-world failure mode the longitudinal methodology
	// exists to catch.
	Zombies []Zombie `json:"zombies,omitempty"`

	// Compared counts the distinct names surveyed in either generation —
	// the population the delta actually covers. Names that resolved in
	// neither generation (e.g. corpus entries missing from both replayed
	// recordings) are invisible to a diff; callers comparing against an
	// intended corpus size should check this.
	Compared int `json:"compared"`
}

// NameChange describes how one name's trust surface moved.
type NameChange struct {
	Name string `json:"name"`
	// ChainChanged reports that the delegation chain itself re-routed
	// (a different zone sequence, not just different servers).
	ChainChanged bool `json:"chain_changed,omitempty"`
	// TCBAdded and TCBRemoved list the hosts that entered or left the
	// name's trusted computing base, sorted.
	TCBAdded   []string `json:"tcb_added,omitempty"`
	TCBRemoved []string `json:"tcb_removed,omitempty"`
	// OldTCB and NewTCB are the TCB sizes in each generation.
	OldTCB int `json:"old_tcb"`
	NewTCB int `json:"new_tcb"`
	// OldCut/NewCut are the §3.2 min-cut bottleneck widths, and
	// OldSafe/NewSafe the non-vulnerable server counts in the Figure 7
	// cut; -1 when the cut is not computable (empty delegation chain).
	OldCut  int `json:"old_cut"`
	NewCut  int `json:"new_cut"`
	OldSafe int `json:"old_safe"`
	NewSafe int `json:"new_safe"`
}

// Growth returns the TCB size change (positive = the trust surface
// grew).
func (c NameChange) Growth() int { return c.NewTCB - c.OldTCB }

// ZoneChange describes a zone whose NS host set changed between two
// independent crawls.
type ZoneChange struct {
	Apex      string   `json:"apex"`
	NSAdded   []string `json:"ns_added,omitempty"`
	NSRemoved []string `json:"ns_removed,omitempty"`
}

// ZombieKind classifies why a still-trusted dependency is stale.
type ZombieKind uint8

const (
	// DelegationRemoved: the host was dropped from at least one zone's
	// NS set, yet another delegation still routes trust through it.
	DelegationRemoved ZombieKind = iota
	// StoppedAnswering: the host's own address chain resolved in the
	// older generation but not in the newer one.
	StoppedAnswering
)

func (k ZombieKind) String() string {
	switch k {
	case DelegationRemoved:
		return "delegation-removed"
	case StoppedAnswering:
		return "stopped-answering"
	}
	return "unknown"
}

// MarshalText implements encoding.TextMarshaler so JSON output carries
// the symbolic kind.
func (k ZombieKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Zombie is one stale dependency of the newer generation.
type Zombie struct {
	Host string     `json:"host"`
	Kind ZombieKind `json:"kind"`
	// Zones lists the zones that dropped the host from their NS set
	// (DelegationRemoved only), sorted.
	Zones []string `json:"zones,omitempty"`
	// Names counts the newer generation's surveyed names still carrying
	// the host in their TCB.
	Names int `json:"names"`
}

// Options tunes a Compute call.
type Options struct {
	// OldMemo/NewMemo, when non-nil, serve and feed per-chain min-cut
	// results for the respective generation (a Monitor passes its
	// cross-generation chain memo for both sides; DiffLogs passes each
	// replay's own). Results are identical with or without memos.
	OldMemo *analysis.ChainMemo
	NewMemo *analysis.ChainMemo
}

// Empty reports whether nothing changed between the generations.
func (d *Delta) Empty() bool {
	return len(d.NamesAdded) == 0 && len(d.NamesRemoved) == 0 &&
		len(d.Changed) == 0 && len(d.ZonesAdded) == 0 && len(d.ZonesRemoved) == 0 &&
		len(d.ZoneChanges) == 0 && d.ChainsAdded == 0 && d.ChainsRemoved == 0 &&
		len(d.Zombies) == 0
}

// Grew returns the changed names whose TCB grew by at least minGrowth
// hosts, preserving order (sorted by name).
func (d *Delta) Grew(minGrowth int) []NameChange {
	if minGrowth < 1 {
		minGrowth = 1
	}
	var out []NameChange
	for _, c := range d.Changed {
		if c.Growth() >= minGrowth {
			out = append(out, c)
		}
	}
	return out
}

// genOf stamps a survey's generation as the engine committed it (0 for
// the pre-crawl view and for synthetic/batch-built surveys — the graph
// epoch is an internal builder counter and intentionally not used, as it
// can run ahead of the committed generation numbering).
func genOf(s *crawler.Survey) int64 { return s.Stats.Generation }

// Compute diffs two survey generations, older to newer. Same-store
// generations (committed by one Monitor) are diffed incrementally off
// interned ids and epoch stamps; foreign generations are compared by
// name. Both paths produce identical deltas. ctx is honored between
// per-chain min-cut computations.
func Compute(ctx context.Context, old, new *crawler.Survey, opts Options) (*Delta, error) {
	d := &Delta{FromGen: genOf(old), ToGen: genOf(new)}
	e := &evaluator{old: old, new: new, opts: opts,
		cuts: make(map[cutKey]*mincut.Result), tcbs: make(map[[2]int32]tcbDiff)}
	var err error
	if new.Graph.JournalFrom(old.Graph) {
		err = computeIncremental(ctx, e, d)
	} else {
		err = computeGeneral(ctx, e, d)
	}
	if err != nil {
		return nil, err
	}
	// |union of both name sets| = the newer generation's names plus the
	// names only the older one had — identical for both paths.
	d.Compared = new.Graph.NumNames() + len(d.NamesRemoved)
	normalize(d)
	return d, nil
}

// cutKey dedups min-cut computations per (generation side, chain id).
type cutKey struct {
	newSide bool
	cid     int32
}

// tcbDiff is the per-(oldCid,newCid) TCB comparison shared by every
// name on the same chain pair: a popular chain changing once costs one
// sort-and-diff, not one per dependent name.
type tcbDiff struct {
	added, removed []string
	oldLen, newLen int
}

// evaluator carries the shared per-name change assessment used by both
// paths, so their outputs are identical by construction.
type evaluator struct {
	old, new *crawler.Survey
	opts     Options
	cuts     map[cutKey]*mincut.Result
	tcbs     map[[2]int32]tcbDiff
}

// cutOf computes (or recalls) the Figure-7 min-cut of a name, keyed by
// its chain so names sharing a delegation chain pay once. A nil result
// means the cut is not computable for this chain.
func (e *evaluator) cutOf(newSide bool, name string, cid int32) *mincut.Result {
	key := cutKey{newSide, cid}
	if res, ok := e.cuts[key]; ok {
		return res
	}
	s, memo := e.old, e.opts.OldMemo
	if newSide {
		s, memo = e.new, e.opts.NewMemo
	}
	res, err := analysis.BottleneckOfMemo(s, name, memo)
	if err != nil {
		res = nil
	}
	e.cuts[key] = res
	return res
}

// assess builds the NameChange for a name present in both generations
// and reports whether anything actually changed.
func (e *evaluator) assess(ctx context.Context, name string, oldCid, newCid int32, chainChanged bool) (NameChange, bool, error) {
	if err := ctx.Err(); err != nil {
		return NameChange{}, false, err
	}
	td, ok := e.tcbs[[2]int32{oldCid, newCid}]
	if !ok {
		oldTCB := hostNames(e.old, e.old.Graph.ChainTCBIDs(oldCid))
		newTCB := hostNames(e.new, e.new.Graph.ChainTCBIDs(newCid))
		added, removed := diffSorted(newTCB, oldTCB)
		td = tcbDiff{added: added, removed: removed, oldLen: len(oldTCB), newLen: len(newTCB)}
		e.tcbs[[2]int32{oldCid, newCid}] = td
	}

	nc := NameChange{
		Name:         name,
		ChainChanged: chainChanged,
		TCBAdded:     td.added,
		TCBRemoved:   td.removed,
		OldTCB:       td.oldLen,
		NewTCB:       td.newLen,
		OldCut:       -1, OldSafe: -1,
		NewCut: -1, NewSafe: -1,
	}
	if res := e.cutOf(false, name, oldCid); res != nil {
		nc.OldCut, nc.OldSafe = res.Size, res.SafeInCut
	}
	if res := e.cutOf(true, name, newCid); res != nil {
		nc.NewCut, nc.NewSafe = res.Size, res.SafeInCut
	}
	changed := nc.ChainChanged || len(td.added) > 0 || len(td.removed) > 0 ||
		nc.OldCut != nc.NewCut || nc.OldSafe != nc.NewSafe
	return nc, changed, nil
}

// computeIncremental is the same-store fast path: the per-epoch change
// journal names every added/removed/re-chained name, and chain stamps
// bound the set of chains whose dependency structure moved — everything
// else is shared storage and diffs to nothing without being read.
//
//lint:hotpath
func computeIncremental(ctx context.Context, e *evaluator, d *Delta) error {
	og, ng := e.old.Graph, e.new.Graph
	oldEpoch := og.Epoch()

	// Zones and chains intern append-only in one store: additions are id
	// ranges, removals impossible.
	if nz := ng.Zones(); len(nz) > og.NumZones() {
		d.ZonesAdded = append([]string(nil), nz[og.NumZones():]...)
		sort.Strings(d.ZonesAdded)
	}

	touched := ng.NamesTouchedSince(oldEpoch)
	touchedSet := make(map[string]bool, len(touched))
	newlyLive := make(map[int32]bool, len(touched))
	ceasedLive := make(map[int32]bool, len(touched))
	for _, name := range touched {
		touchedSet[name] = true
		oldCid, oldOK := og.NameChainID(name)
		newCid, newOK := ng.NameChainID(name)
		switch {
		case !oldOK && newOK:
			d.NamesAdded = append(d.NamesAdded, name)
		case oldOK && !newOK:
			d.NamesRemoved = append(d.NamesRemoved, name)
		case oldOK && newOK:
			nc, changed, err := e.assess(ctx, name, oldCid, newCid, oldCid != newCid)
			if err != nil {
				return err
			}
			if changed {
				d.Changed = append(d.Changed, nc)
			}
		default:
			continue
		}
		// Live-chain transitions ride on the same touched names: a chain
		// becomes live through a name arriving on it, ceases through its
		// last name leaving.
		if newOK {
			newlyLive[newCid] = true
		}
		if oldOK {
			ceasedLive[oldCid] = true
		}
	}
	for cid := range newlyLive {
		if !og.ChainLive(cid) && ng.ChainLive(cid) {
			d.ChainsAdded++
		}
	}
	for cid := range ceasedLive {
		if !ng.ChainLive(cid) {
			d.ChainsRemoved++
		}
	}

	// Chains whose dependency structure changed under unmoved names: the
	// stamp scan is O(chains) over an int64 array; only genuinely
	// changed chains are examined further.
	for _, cid := range ng.ChainsChangedSince(oldEpoch) {
		if int(cid) >= og.NumChains() {
			continue // born after the old epoch: its names are all touched
		}
		for _, name := range ng.NamesOnChain(cid) {
			if touchedSet[name] {
				continue // classified above
			}
			// Untouched name: its mapping is unchanged, so it sits on
			// this same chain in both generations.
			nc, changed, err := e.assess(ctx, name, cid, cid, false)
			if err != nil {
				return err
			}
			if changed {
				d.Changed = append(d.Changed, nc)
			}
		}
	}

	// Zombies are structurally impossible within one store: zone NS sets
	// are first-observation-wins immutable and host chains never detach.
	return nil
}

// computeGeneral is the foreign-graph path — and the reference
// semantics: every name, zone, and host is compared by name across the
// two generations, including the zombie-dependency scan.
func computeGeneral(ctx context.Context, e *evaluator, d *Delta) error {
	og, ng := e.old.Graph, e.new.Graph
	oldNames, newNames := og.Names(), ng.Names()

	// Live-chain content sets, keyed by the chain's zone sequence.
	oldLive := map[string]bool{}
	newLive := map[string]int32{}
	newLiveCount := map[int32]int{}
	for _, n := range oldNames {
		if cid, ok := og.NameChainID(n); ok {
			oldLive[chainKey(og, cid)] = true
		}
	}
	for _, n := range newNames {
		if cid, ok := ng.NameChainID(n); ok {
			newLive[chainKey(ng, cid)] = cid
			newLiveCount[cid]++
		}
	}
	for key := range newLive {
		if !oldLive[key] {
			d.ChainsAdded++
		}
	}
	for key := range oldLive {
		if _, ok := newLive[key]; !ok {
			d.ChainsRemoved++
		}
	}

	// Name-by-name sweep over the two sorted lists.
	i, j := 0, 0
	for i < len(oldNames) || j < len(newNames) {
		switch {
		case j >= len(newNames) || (i < len(oldNames) && oldNames[i] < newNames[j]):
			d.NamesRemoved = append(d.NamesRemoved, oldNames[i])
			i++
		case i >= len(oldNames) || newNames[j] < oldNames[i]:
			d.NamesAdded = append(d.NamesAdded, newNames[j])
			j++
		default:
			name := oldNames[i]
			oldCid, _ := og.NameChainID(name)
			newCid, _ := ng.NameChainID(name)
			nc, changed, err := e.assess(ctx, name, oldCid, newCid,
				chainKey(og, oldCid) != chainKey(ng, newCid))
			if err != nil {
				return err
			}
			if changed {
				d.Changed = append(d.Changed, nc)
			}
			i++
			j++
		}
	}

	// Zones: membership and NS-set drift, plus delegation-removed zombie
	// candidates.
	droppedNS := map[string][]string{} // host -> zones that dropped it
	oldZones, newZones := sortedCopy(og.Zones()), sortedCopy(ng.Zones())
	i, j = 0, 0
	for i < len(oldZones) || j < len(newZones) {
		switch {
		case j >= len(newZones) || (i < len(oldZones) && oldZones[i] < newZones[j]):
			d.ZonesRemoved = append(d.ZonesRemoved, oldZones[i])
			i++
		case i >= len(oldZones) || newZones[j] < oldZones[i]:
			d.ZonesAdded = append(d.ZonesAdded, newZones[j])
			j++
		default:
			apex := oldZones[i]
			oldNS := hostNames(e.old, og.ZoneNS(apex))
			newNS := hostNames(e.new, ng.ZoneNS(apex))
			nsAdded, nsRemoved := diffSorted(newNS, oldNS)
			if len(nsAdded) > 0 || len(nsRemoved) > 0 {
				d.ZoneChanges = append(d.ZoneChanges, ZoneChange{Apex: apex, NSAdded: nsAdded, NSRemoved: nsRemoved})
				for _, h := range nsRemoved {
					droppedNS[h] = append(droppedNS[h], apex)
				}
			}
			i++
			j++
		}
	}

	// Zombie scan: still-trusted hosts whose delegation was removed or
	// that stopped answering.
	trusting := func(host string) int {
		hid, ok := ng.HostID(host)
		if !ok {
			return 0
		}
		total := 0
		for cid, n := range newLiveCount {
			if containsID(ng.ChainTCBIDs(cid), hid) {
				total += n
			}
		}
		return total
	}
	for host, zones := range droppedNS {
		if n := trusting(host); n > 0 {
			sort.Strings(zones)
			d.Zombies = append(d.Zombies, Zombie{Host: host, Kind: DelegationRemoved, Zones: zones, Names: n})
		}
	}
	for _, host := range ng.Hosts() {
		if _, dropped := droppedNS[host]; dropped {
			continue // already classified by the stronger signal
		}
		newID, _ := ng.HostID(host)
		oldID, ok := og.HostID(host)
		if !ok {
			continue
		}
		if og.HostChainIDs(oldID) != nil && ng.HostChainIDs(newID) == nil {
			if n := trusting(host); n > 0 {
				d.Zombies = append(d.Zombies, Zombie{Host: host, Kind: StoppedAnswering, Names: n})
			}
		}
	}
	return ctx.Err()
}

// chainKey renders a chain's zone sequence as a comparable string.
func chainKey(g *core.Graph, cid int32) string {
	ids := g.ChainZoneIDs(cid)
	parts := make([]string, len(ids))
	for i, z := range ids {
		parts[i] = g.Zone(z)
	}
	return strings.Join(parts, "\x00")
}

// hostNames maps interned host ids to sorted host names.
func hostNames(s *crawler.Survey, ids []int32) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.Graph.Host(id))
	}
	sort.Strings(out)
	return out
}

// diffSorted returns newSet−oldSet and oldSet−newSet over two sorted
// string slices (nil when empty).
func diffSorted(newSet, oldSet []string) (added, removed []string) {
	i, j := 0, 0
	for i < len(newSet) || j < len(oldSet) {
		switch {
		case j >= len(oldSet) || (i < len(newSet) && newSet[i] < oldSet[j]):
			added = append(added, newSet[i])
			i++
		case i >= len(newSet) || oldSet[j] < newSet[i]:
			removed = append(removed, oldSet[j])
			j++
		default:
			i++
			j++
		}
	}
	return added, removed
}

// containsID reports membership in a sorted id slice.
func containsID(ids []int32, id int32) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// normalize sorts every output list so both computation paths emit
// byte-identical deltas.
func normalize(d *Delta) {
	sort.Strings(d.NamesAdded)
	sort.Strings(d.NamesRemoved)
	sort.Strings(d.ZonesAdded)
	sort.Strings(d.ZonesRemoved)
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Name < d.Changed[j].Name })
	sort.Slice(d.ZoneChanges, func(i, j int) bool { return d.ZoneChanges[i].Apex < d.ZoneChanges[j].Apex })
	sort.Slice(d.Zombies, func(i, j int) bool {
		if d.Zombies[i].Host != d.Zombies[j].Host {
			return d.Zombies[i].Host < d.Zombies[j].Host
		}
		return d.Zombies[i].Kind < d.Zombies[j].Kind
	})
}
