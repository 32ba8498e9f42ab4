package core

import (
	"sync"
	"unsafe"
	"weak"

	"dnstrust/internal/snapshot"
)

// store is the shared, copy-on-write backing of every Graph a Builder
// produces. One builder owns one store; each FinishEpoch pins a Graph to
// the store at an epoch number, and all live epochs share the same
// append-only intern arrays instead of each pinning a full clone of the
// tables — the retention cost of holding N generations of a million-name
// survey collapses from N copies of every map to N sets of array
// headers plus whatever genuinely changed between epochs.
//
// Mutability is confined to three places, each epoch-stamped so an older
// Graph never observes a younger write:
//
//   - the intern maps (hostID, zoneID) only grow, and an id is visible
//     to an epoch only when it is below that epoch's pinned array
//     length;
//   - hostChain entries are assigned at most once (a pending chain
//     attaching to an existing host), stamped with the attaching epoch;
//   - name→chain mappings are versioned: Complete/Fail append a new
//     version instead of overwriting, and a reader resolves the newest
//     version at or below its own epoch.
//
// Concurrency: the builder is the only writer and serializes its writes
// under mu; Graph readers of the mutable parts take mu.RLock. The
// append-only inner arrays (hosts, zones, chains, zoneNS and their
// interned element slices) are never rewritten below a published
// epoch's pinned length, so Graphs read them lock-free through their
// own pinned slice headers.
type store struct {
	mu sync.RWMutex

	// Interned nameserver hosts and zones (append-only).
	hosts  []string
	hostID map[string]int32
	zones  []string
	zoneID map[string]int32

	// chains is the interned chain table: every distinct delegation
	// chain appears exactly once as an immutable zone-id list.
	chains [][]int32
	// zoneNS[z] lists the NS host ids of zone z, sorted (append-only;
	// first observation of a zone wins, so entries are never rewritten).
	zoneNS [][]int32

	// hostChain[h] is host h's address chain (aliasing the interned
	// chain table); hostChainAt[h] is the epoch that attached it, 0 when
	// no chain is known yet; hostChainID[h] is the attached chain's id
	// as core/hostchain stores it (HostChainNone, HostChainEmpty or the
	// chain id), so a snapshot write copies the column instead of
	// recovering ids from slice addresses. Entries are assigned at most
	// once. A detached store (Graph.Detach) keeps no hostChainID.
	hostChain   [][]int32
	hostChainAt []int64
	hostChainID []int32

	// base maps names completed in the first live epoch — and never
	// touched since — straight to their chain id: the compact common
	// case (one 4-byte value, no version list), and the only table the
	// big initial batch writes. baseEpoch is the epoch base entries are
	// visible from; every published graph of this store has an epoch at
	// or above it, so a base hit is visible to every reader. A name that
	// later re-chains or fails moves to the versioned table (its base
	// mapping becomes version 0 there) and is deleted here.
	base      map[string]int32
	baseEpoch int64
	// names maps each surveyed name that has been touched after the
	// first live epoch to its version history.
	names map[string]nameVers
	// chainNames[c] lists every name that ever mapped to chain c,
	// indexed densely by chain id (append-only, parallel to chains). It
	// may carry stale entries for names that since re-chained or failed,
	// and names mapped later than a reader's epoch; readers filter by
	// the version visible at their epoch.
	chainNames [][]string
	// touched[e] journals the names whose chain mapping changed at epoch
	// e, in arrival order with possible duplicates — the per-epoch
	// change journal the timeline diff reads instead of rescanning the
	// whole name table (readers sort and dedup; the build hot path only
	// appends). Journals at or below journalFloor have been pruned
	// (Builder.PruneJournal): incremental diffs from epochs below the
	// floor are impossible and fall back to the by-name path, so a
	// bounded timeline keeps the store's history bounded too.
	touched      map[int64][]string
	journalFloor int64

	// snap pins the snapshot file this store was loaded from, when it
	// was. Hot arrays are views into the file's mapping, so the mapping
	// must outlive every graph of this store — it is simply never
	// released for the life of the process.
	snap *snapshot.File
}

func newStore(sizeHint int) *store {
	return &store{
		hostID:  make(map[string]int32),
		zoneID:  make(map[string]int32),
		base:    make(map[string]int32, sizeHint),
		names:   make(map[string]nameVers),
		touched: make(map[int64][]string),
	}
}

// nameVer is one version of a name's chain mapping: at epoch, the name
// either mapped to chain cid (present) or left the survey (a walk
// failure superseding an earlier success).
type nameVer struct {
	epoch   int64
	cid     int32
	present bool
}

// nameVers is a name's version history with the first version inlined
// and later versions behind an overflow pointer: almost every name is
// completed once and never touched again, so the common case is a
// compact map value with no extra allocation.
type nameVers struct {
	v0   nameVer
	more *[]nameVer
}

// at returns the newest version visible at epoch.
func (v nameVers) at(epoch int64) (nameVer, bool) {
	if v.more != nil {
		m := *v.more
		for i := len(m) - 1; i >= 0; i-- {
			if m[i].epoch <= epoch {
				return m[i], true
			}
		}
	}
	if v.v0.epoch <= epoch {
		return v.v0, true
	}
	return nameVer{}, false
}

// latest returns the newest version regardless of epoch.
func (v nameVers) latest() nameVer {
	if v.more != nil {
		if m := *v.more; len(m) > 0 {
			return m[len(m)-1]
		}
	}
	return v.v0
}

// int32sEqual reports whether two id slices hold the same elements.
func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// setPool hash-conses the sorted host-id sets FinishEpoch builds: zone
// closures and chain TCBs with equal content share one immutable,
// capacity-clipped backing array, across zones, chains and epochs. Trust
// concentrates on a few providers, so the same sets recur: far fewer
// distinct sets exist than zones and chains. Only FinishEpoch touches the
// pool (the builder is single-owner), so it takes no lock; no Graph reads
// it, and nothing is keyed by a set.
//
// The pool holds its sets weakly: a set no graph holds any more — one a
// late attach replaced, once the generations holding it are dropped — is
// collected, and its entry is swept out when the pool has doubled since
// the last sweep. So the pool is bounded by the sets the live graphs hold
// (the builder's newest among them), not by the builder's churn, and an
// equal set built later shares with every live holder. Restored sets are
// views into the snapshot file and are not pooled.
type setPool struct {
	sets    map[uint64][]pooledSet
	n       int // entries, live or not yet swept
	sweepAt int
}

// pooledSet is one pooled set: a weak pointer to its first id, and its
// length.
type pooledSet struct {
	p weak.Pointer[int32]
	n int
}

// minSweep is the pool size below which no sweep runs.
const minSweep = 1024

// intern returns the pooled set equal to s, pooling a copy of s when none
// is. The empty set is nil. The caller may reuse s afterwards.
func (p *setPool) intern(s []int32) []int32 {
	return p.internHashed(hashIDs(s), s)
}

// internHashed is intern given s's hash h. Sets sharing a hash are told
// apart by content, so a collision never merges two sets.
func (p *setPool) internHashed(h uint64, s []int32) []int32 {
	if len(s) == 0 {
		return nil
	}
	if t := p.lookup(h, s); t != nil {
		return t
	}
	if p.n >= p.sweepAt {
		p.sweep()
	}
	if p.sets == nil {
		p.sets = make(map[uint64][]pooledSet)
	}
	c := make([]int32, len(s))
	copy(c, s)
	p.sets[h] = append(p.sets[h], pooledSet{weak.Make(&c[0]), len(c)})
	p.n++
	return c
}

// lookup returns the live pooled set with hash h equal to the non-empty
// s, or nil.
func (p *setPool) lookup(h uint64, s []int32) []int32 {
	for _, e := range p.sets[h] {
		if e.n != len(s) {
			continue
		}
		if v := e.p.Value(); v != nil {
			if t := unsafe.Slice(v, e.n); int32sEqual(t, s) {
				return t
			}
		}
	}
	return nil
}

// sweep drops the entries of collected sets and sets the size of the next
// sweep to twice what is left, so sweeping costs O(1) per pooled set.
func (p *setPool) sweep() {
	p.n = 0
	for h, es := range p.sets {
		live := es[:0]
		for _, e := range es {
			if e.p.Value() != nil {
				live = append(live, e)
			}
		}
		clear(es[len(live):])
		if len(live) == 0 {
			delete(p.sets, h)
			continue
		}
		p.sets[h] = live
		p.n += len(live)
	}
	p.sweepAt = max(2*p.n, minSweep)
}

// hashIDs hashes an id slice FNV-1a style, one 32-bit id per step.
func hashIDs(s []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	return h
}

// copyAliased deep-copies tables of id slices, preserving the aliasing
// structure across all of them: entries sharing one backing slice in any
// source table share one copy in the results. Used by Detach to
// materialize a store-independent epoch without flattening the sharing of
// equal closures and TCBs.
func copyAliased(tables ...[][]int32) [][][]int32 {
	type sliceKey struct {
		p *int32
		n int
	}
	seen := make(map[sliceKey][]int32)
	outs := make([][][]int32, len(tables))
	for t, src := range tables {
		out := make([][]int32, len(src))
		for i, s := range src {
			if s == nil {
				continue
			}
			if len(s) == 0 {
				out[i] = []int32{}
				continue
			}
			k := sliceKey{&s[0], len(s)}
			c, ok := seen[k]
			if !ok {
				c = append([]int32(nil), s...)
				seen[k] = c
			}
			out[i] = c
		}
		outs[t] = out
	}
	return outs
}
