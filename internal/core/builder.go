package core

import "sort"

// Builder is the streaming graph assembler: the crawl engine feeds it
// walker events (zone discovered, chain resolved) and per-name walk
// results as they happen, and it absorbs them straight into the shared
// epoch store's intern tables — zones, hosts, and delegation chains
// become compact int32 ids the moment they stream in, with no
// string-keyed end-of-crawl buffer. Finish only runs the Tarjan/closure
// pass over the already compact arrays, so graph construction memory
// stays flat in the corpus size (one map entry per name, one interned
// chain per *distinct* chain).
//
// Event ordering contract: a zone must be observed before any chain that
// traverses it, and a host's chain before the results that depend on it —
// exactly the causal order the walker emits them in (it publishes each
// event before the discovery becomes visible to other walk goroutines).
// Chains observed for keys that never become NS hosts of any zone
// (surveyed names also flow through the walker's chain cache) are held in
// a small pending set bounded by the number of in-flight walks and
// dropped on Complete/Fail.
//
// A Builder is single-owner: exactly one goroutine (the crawl's
// assembler) calls its methods. It may keep absorbing events after a
// FinishEpoch — published epochs read the same store copy-on-write, with
// every mutation epoch-stamped so older graphs never see younger writes.
// Finish may be called once, after the last event.
type Builder struct {
	st *store
	// epoch counts FinishEpoch calls; in-flight mutations are stamped
	// epoch+1 (the epoch they will first be visible at).
	epoch int64
	// prev is the last finalized epoch's graph, the copy-on-write donor
	// for the next epoch's closure/TCB tables.
	prev *Graph

	// chainIDs dedups interned chains: byte-packed zone-id key -> chain
	// id. Identical delegation chains share one []int32 in st.chains.
	// Only chain interning reads it, so it is nil until the first intern
	// (indexChainsLocked): a loaded builder answers before paying for it.
	chainIDs map[string]int32
	// pending holds chains whose key is not (yet) an interned NS host.
	pending map[string][]string
	// failedChain keeps the interned chain id of failed names whose
	// chain did resolve, so a later zone listing such a name as an NS
	// host can still attach it (bounded by the failure count).
	failedChain map[string]int32
	// failed maps names whose walk failed; mutually exclusive with the
	// store's live name mappings (last report wins).
	failed map[string]error

	// versionedPresent counts versioned-table entries whose latest
	// version is present; the live name count is len(store.base) plus
	// this (base entries are always present).
	versionedPresent int
	// touched journals names whose chain mapping changed since the last
	// FinishEpoch, in arrival order (duplicates possible when a name
	// flips twice in one batch; readers dedup). FinishEpoch moves it
	// into the store's per-epoch journal without sorting, so the build
	// hot path pays one append per changed name and nothing at commit.
	// The first live-store epoch is not journaled at all: no older
	// same-store epoch exists to diff it against, so nothing can ever
	// read that journal — and the big initial batch pays nothing.
	touched []string

	// shared flips true once a graph backed by the live store has been
	// published (the first non-empty FinishEpoch): from then on readers
	// can exist and every mutation takes the store lock. Until then the
	// builder writes lock-free — the whole first batch, and any one-shot
	// Finish, never pays for synchronization nobody needs.
	shared bool

	// epochHosts is the host-table length at the last FinishEpoch: hosts
	// below this index already appeared in a finalized Graph.
	epochHosts int
	// lateAttached collects pre-epoch host ids whose address chain was
	// attached after the host had been published in a finalized Graph —
	// the only way an already-finalized zone's dependency structure (and
	// therefore any chain's TCB or min-cut digraph) can change between
	// epochs. Consumers drain it with TakeLateAttached; a per-chain
	// analysis memo flushes when it is not empty.
	lateAttached map[int32]struct{}

	// baseNames/baseCids are the store's base table in sorted name
	// order, kept for snapshot writes (nil until the first one). Once a
	// graph is published base entries are never added or rewritten, only
	// deleted, so a write drops the names deleted since the last one
	// instead of sorting the map again. Before that the order is not kept.
	baseNames []string
	baseCids  []int32
	// verNames is the store's versioned name table in sorted order, kept
	// for snapshot writes (nil until the first one). A name joins that
	// table only through the change journal and never leaves it, so each
	// FinishEpoch hands its journal to verTouched and a write merges in
	// the names it lacks instead of sorting the table again.
	verNames   []string
	verTouched []string

	// sets is the hash-consing pool of the closures and TCBs FinishEpoch
	// builds (setPool); only FinishEpoch reads or writes it.
	sets setPool

	// Scratch buffers reused across interning calls.
	idBuf  []int32
	keyBuf []byte
}

// NewBuilder creates an empty streaming assembler. sizeHint, when
// positive, pre-sizes the name table for the expected corpus.
func NewBuilder(sizeHint int) *Builder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Builder{
		st:           newStore(sizeHint),
		pending:      make(map[string][]string),
		failedChain:  make(map[string]int32),
		failed:       make(map[string]error),
		lateAttached: make(map[int32]struct{}),
	}
}

// lock/unlock guard store mutations, but only once a live-store graph
// has been published — before that no reader exists and the write path
// stays synchronization-free.
func (b *Builder) lock() {
	if b.shared {
		b.st.mu.Lock()
	}
}

func (b *Builder) unlock() {
	if b.shared {
		b.st.mu.Unlock()
	}
}

// ObserveZone absorbs one discovered zone cut: the apex is interned, its
// NS hosts are interned, and any chain previously observed for a newly
// interned host is attached. The root ("") is excluded, as throughout the
// paper. First observation of an apex wins, matching the walker's
// first-discovery-wins cache.
func (b *Builder) ObserveZone(apex string, nsHosts []string) {
	if apex == "" {
		return
	}
	st := b.st
	st.index()
	if _, known := st.zoneID[apex]; known {
		return
	}
	b.lock()
	defer b.unlock()
	zid := int32(len(st.zones))
	st.zones = append(st.zones, apex)
	st.zoneID[apex] = zid
	ids := make([]int32, 0, len(nsHosts))
	for _, h := range nsHosts {
		hid, isNew := b.internHostLocked(h)
		if isNew {
			// The host's chain may already be known: waiting in the
			// pending set, or interned through the host doubling as a
			// surveyed name (completed or failed after its chain walk).
			if chain, ok := b.pending[h]; ok {
				delete(b.pending, h)
				b.attachChainLocked(hid, b.internChainIDLocked(chain))
			} else if vs, ok := st.names[h]; ok && vs.latest().present {
				b.attachChainLocked(hid, vs.latest().cid)
			} else if cid, ok := st.base[h]; ok {
				b.attachChainLocked(hid, cid)
			} else if cid, ok := b.failedChain[h]; ok {
				b.attachChainLocked(hid, cid)
			}
		}
		ids = append(ids, hid)
	}
	sortUnique(&ids)
	st.zoneNS = append(st.zoneNS, ids)
}

// ObserveChain absorbs one resolved delegation chain for key (a
// nameserver host, or a surveyed name passing through the walker's chain
// cache). Chains of interned hosts are interned immediately; others wait
// in the pending set until their host is interned by a zone observation,
// or are dropped when the key completes as a surveyed name.
func (b *Builder) ObserveChain(key string, chain []string) {
	st := b.st
	st.index()
	if hid, ok := st.hostID[key]; ok {
		if st.hostChainAt[hid] == 0 {
			b.lock()
			b.attachChainLocked(hid, b.internChainIDLocked(chain))
			b.unlock()
			if int(hid) < b.epochHosts {
				b.lateAttached[hid] = struct{}{}
			}
		}
		return
	}
	if _, ok := b.pending[key]; !ok {
		b.pending[key] = chain
	}
}

// Complete records one successfully walked name and its zone chain. It
// supersedes any earlier Fail for the name. The name's chain stays
// reachable through the intern tables, so a later zone observation
// listing the name as an NS host can still attach it.
func (b *Builder) Complete(name string, chain []string) {
	delete(b.failed, name)
	delete(b.failedChain, name)
	delete(b.pending, name)
	b.lock()
	cid := b.internChainIDLocked(chain)
	touched := b.completeLocked(name, cid)
	b.unlock()
	if touched {
		b.touched = append(b.touched, name)
	}
}

// completeLocked records name's chain mapping given an already interned
// chain id, shared between the string event path (Complete) and the id
// translation path (CompleteChain). It reports whether the mapping
// changed and must be journaled; callers hold the store lock when
// shared and append to the touched buffer outside it.
func (b *Builder) completeLocked(name string, cid int32) bool {
	st := b.st
	st.index()
	if !b.shared {
		// First live epoch: no reader exists and no history is needed —
		// one compact map assignment, exactly the pre-timeline hot path.
		st.base[name] = cid
		st.chainNames[cid] = append(st.chainNames[cid], name)
		return false
	}
	nv := nameVer{epoch: b.epoch + 1, cid: cid, present: true}
	if vs, ok := st.names[name]; ok {
		lv := vs.latest()
		if lv.present && lv.cid == cid {
			return false // unchanged mapping: no new version, no touch
		}
		b.writeVersionLocked(name, vs, lv, nv)
		if !lv.present {
			b.versionedPresent++
		}
	} else if bcid, ok := st.base[name]; ok {
		if bcid == cid {
			return false // unchanged mapping
		}
		// Re-chained: the base mapping becomes version 0.
		delete(st.base, name)
		m := []nameVer{nv}
		st.names[name] = nameVers{v0: nameVer{epoch: st.baseEpoch, cid: bcid, present: true}, more: &m}
		b.versionedPresent++ // base shrank by one: net live count unchanged
	} else {
		st.names[name] = nameVers{v0: nv}
		b.versionedPresent++
	}
	st.chainNames[cid] = append(st.chainNames[cid], name)
	return true
}

// Fail records one name whose walk failed. It supersedes any earlier
// Complete for the name. If the name's own chain did resolve before the
// failure (the walker stores it even when the subsequent host walk
// fails), the interned chain id is kept so the name can still serve as
// an NS host of a later-observed zone.
func (b *Builder) Fail(name string, err error) {
	st := b.st
	st.index()
	if chain, ok := b.pending[name]; ok {
		b.lock()
		b.failedChain[name] = b.internChainIDLocked(chain)
		b.unlock()
		delete(b.pending, name)
	} else if vs, ok := st.names[name]; ok && vs.latest().present {
		b.failedChain[name] = vs.latest().cid
	} else if bcid, ok := st.base[name]; ok {
		b.failedChain[name] = bcid
	}
	if !b.shared {
		delete(st.base, name)
		b.failed[name] = err
		return
	}
	if vs, ok := st.names[name]; ok {
		if lv := vs.latest(); lv.present {
			b.lock()
			b.writeVersionLocked(name, vs, lv, nameVer{epoch: b.epoch + 1, cid: lv.cid, present: false})
			b.unlock()
			b.versionedPresent--
			b.touched = append(b.touched, name)
		}
	} else if bcid, ok := st.base[name]; ok {
		// A base name stops resolving: its mapping becomes version 0
		// with an absent version on top (old epochs keep seeing it).
		b.lock()
		delete(st.base, name)
		m := []nameVer{{epoch: b.epoch + 1, cid: bcid, present: false}}
		st.names[name] = nameVers{v0: nameVer{epoch: st.baseEpoch, cid: bcid, present: true}, more: &m}
		b.unlock()
		b.touched = append(b.touched, name)
	}
	b.failed[name] = err
}

// writeVersionLocked records nv as the newest version of a name whose
// current entry is vs (with latest version lv). Same-epoch rewrites
// (fail→complete flips within one batch) collapse to a single version so
// histories stay short. Callers hold the store lock when shared.
func (b *Builder) writeVersionLocked(name string, vs nameVers, lv nameVer, nv nameVer) {
	if lv.epoch == nv.epoch {
		if vs.more != nil {
			(*vs.more)[len(*vs.more)-1] = nv
			return // mutated behind the overflow pointer: no map write
		}
		vs.v0 = nv
		b.st.names[name] = vs
		return
	}
	if vs.more == nil {
		vs.more = &[]nameVer{nv}
		b.st.names[name] = vs
		return
	}
	*vs.more = append(*vs.more, nv)
}

// numNames reports the current live (present) name count.
func (b *Builder) numNames() int {
	b.st.index()
	return len(b.st.base) + b.versionedPresent
}

// Done reports how many names (successes plus failures) have been
// absorbed so far. A name reported both complete and failed counts once.
func (b *Builder) Done() int { return b.numNames() + len(b.failed) }

// Names returns the successfully walked names at the builder's current
// (uncommitted) state, sorted.
func (b *Builder) Names() []string {
	out := make([]string, 0, b.numNames()) // numNames indexes the store
	for name := range b.st.base {
		out = append(out, name)
	}
	for name, vs := range b.st.names {
		if vs.latest().present {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Failed returns the per-name failure map. The map is shared with the
// builder; callers own it after Finish.
func (b *Builder) Failed() map[string]error { return b.failed }

// internHostLocked interns a host name and reports whether it was new.
// Callers hold st.mu.
func (b *Builder) internHostLocked(host string) (int32, bool) {
	st := b.st
	st.index()
	if id, ok := st.hostID[host]; ok {
		return id, false
	}
	id := int32(len(st.hosts))
	st.hosts = append(st.hosts, host)
	st.hostID[host] = id
	st.hostChain = append(st.hostChain, nil)
	st.hostChainAt = append(st.hostChainAt, 0)
	st.hostChainID = append(st.hostChainID, HostChainNone)
	return id, true
}

// attachChainLocked assigns host hid's address chain, stamped with the
// epoch it becomes visible at. Callers hold st.mu; entries are assigned
// at most once.
func (b *Builder) attachChainLocked(hid, cid int32) {
	st := b.st
	st.hostChain[hid] = b.chainSliceLocked(cid)
	st.hostChainAt[hid] = b.epoch + 1
	if len(st.hostChain[hid]) == 0 {
		cid = HostChainEmpty
	}
	st.hostChainID[hid] = cid
}

// internChainIDLocked interns chain into the store's chain table,
// deduplicating against every chain seen so far, and returns its chain
// id. Zones not (yet) interned are skipped, mirroring the batch
// builder's behavior — the walker's event order guarantees chain zones
// arrive first. Callers hold st.mu.
func (b *Builder) internChainIDLocked(chain []string) int32 {
	st := b.st
	st.index()
	ids := b.idBuf[:0]
	for _, apex := range chain {
		if apex == "" {
			continue
		}
		if zid, ok := st.zoneID[apex]; ok {
			ids = append(ids, zid)
		}
	}
	b.idBuf = ids
	return b.internChainFromIDsLocked(ids)
}

// internChainFromIDsLocked interns a chain already expressed as zone
// ids — the tail of the string path above, and the whole path for id
// translation (InternChain). Callers hold st.mu.
func (b *Builder) internChainFromIDsLocked(ids []int32) int32 {
	st := b.st
	if b.chainIDs == nil {
		b.indexChainsLocked()
	}
	key := appendChainKey(b.keyBuf[:0], ids)
	b.keyBuf = key
	if cid, ok := b.chainIDs[string(key)]; ok {
		return cid
	}
	cid := int32(len(st.chains))
	st.chains = append(st.chains, append([]int32(nil), ids...))
	st.chainNames = append(st.chainNames, nil)
	b.chainIDs[string(key)] = cid
	return cid
}

// indexChainsLocked builds the chain dedup index over the whole chain
// table. Callers hold st.mu.
func (b *Builder) indexChainsLocked() {
	b.chainIDs = make(map[string]int32, len(b.st.chains))
	var key []byte
	for cid, ids := range b.st.chains {
		key = appendChainKey(key[:0], ids)
		b.chainIDs[string(key)] = int32(cid)
	}
}

// appendChainKey appends the chain dedup key of a zone-id list to key:
// each id as four little-endian bytes.
func appendChainKey(key []byte, ids []int32) []byte {
	for _, id := range ids {
		key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return key
}

// chainSliceLocked returns the shared zone-id slice of an interned
// chain, never nil: a resolved-but-empty chain must stay distinguishable
// from "no chain known" in hostChain.
func (b *Builder) chainSliceLocked(cid int32) []int32 {
	ids := b.st.chains[cid]
	if ids == nil {
		ids = []int32{}
	}
	return ids
}

// Finish runs the closure pass (Tarjan condensation + bottom-up server
// unions + per-chain TCB unions) over the accumulated compact arrays and
// returns the finished Graph. Nothing is re-walked here: all
// interning was done as events streamed in. Finish is terminal: the
// builder's intern state is released and no further events may be fed.
// Long-lived consumers that keep absorbing events between reads use
// FinishEpoch instead.
func (b *Builder) Finish() *Graph {
	g := b.FinishEpoch()
	b.pending = nil
	b.chainIDs = nil
	b.failedChain = nil
	b.sets = setPool{}
	return g
}

// FinishEpoch runs the closure pass over the state accumulated so far and
// returns an immutable snapshot Graph, leaving the builder open: events
// may keep streaming in and FinishEpoch may be called again for the next
// epoch. The snapshot is safe for concurrent readers while the builder
// advances because every graph of one builder reads the same store
// copy-on-write:
//
//   - hosts/zones/chains/zoneNS are append-only — the snapshot pins the
//     epoch's lengths, and later appends never rewrite occupied elements
//     (inner slices are interned and immutable);
//   - hostChain attachments and name→chain mappings are epoch-stamped
//     (versioned, for names), so an older epoch never observes a younger
//     write;
//   - the intern maps are shared under the store's read-write lock
//     instead of being cloned per epoch.
//
// An epoch costs what it changed, not what exists. The store's
// invariants pin what can change: zoneNS is first-observation-wins, a
// host's chain is attached at most once, and an interned chain is
// immutable and references only zones interned before it — so a
// published zone's adjacency changes only when one of its NS hosts is in
// lateAttached, and nothing published reaches a new zone except through
// such a zone. Hence dirty zones = new zones ∪ every published zone that
// reaches a zone with a late-attached NS host, and dirty chains = new
// chains ∪ published chains traversing a dirty published zone. Only
// those go through the closure pass and the TCB union; every other entry,
// and every recomputed one that comes out equal, aliases the previous
// epoch's slice, so N retained generations of a large survey share one
// copy of almost everything. A recomputed set that differs is interned by
// content (setPool), so it too is stored once, however many zones, chains
// and epochs hold it. A zone with a late-attached NS host is dirty
// even when the attach adds no edge: chainStamp must still advance for
// every chain whose TCB holds that host, because the attach reshapes the
// chain's min-cut digraph. Beyond the dirty set an epoch clears O(zones)
// of scratch (a bitmap and the Tarjan state); the four tables grow in
// place, and only an epoch with a late attach copies their O(zones+chains)
// slice headers. The first epoch is the same pass with everything new.
func (b *Builder) FinishEpoch() *Graph {
	st := b.st
	st.index()
	b.epoch++

	// An epoch of a still-empty store (the Monitor's pre-crawl
	// generation 0) is backed by its own empty store: the live store
	// then has no readers yet, and the whole first batch — usually the
	// big one — streams in without any locking.
	if !b.shared && len(st.zones) == 0 && len(st.hosts) == 0 && len(st.base) == 0 && len(st.names) == 0 {
		return emptyGraph(b.epoch)
	}

	g := &Graph{
		st:       st,
		epoch:    b.epoch,
		hosts:    st.hosts[:len(st.hosts):len(st.hosts)],
		zones:    st.zones[:len(st.zones):len(st.zones)],
		chains:   st.chains[:len(st.chains):len(st.chains)],
		zoneNS:   st.zoneNS[:len(st.zoneNS):len(st.zoneNS)],
		numNames: b.numNames(),
	}
	g.computeTables(b.prev, st.hostChain, b.lateAttached, &b.sets)
	if b.verNames != nil {
		b.verTouched = append(b.verTouched, b.touched...)
		if len(b.verTouched) > len(st.names) {
			// Unwritten for a while: sorting the table again costs no
			// more than the merge would, and nothing grows meanwhile.
			b.verNames, b.verTouched = nil, nil
		}
	}
	if len(b.touched) > 0 {
		b.lock()
		st.touched[b.epoch] = b.touched
		b.unlock()
		b.touched = nil
	}
	b.epochHosts = len(st.hosts)
	b.prev = g
	// The graph is about to be published: later mutations can race its
	// readers and must synchronize, and base entries are frozen as
	// visible from this epoch on.
	if !b.shared {
		st.baseEpoch = b.epoch
		b.shared = true
	}
	return g
}

// PruneJournal discards the per-epoch change journals at and below the
// given epoch. Call it with the oldest epoch still diffable (a Monitor
// passes the oldest retained generation's epoch as views fall off its
// bounded timeline): journals the retained views can read stay intact,
// and a caller still holding an evicted view transparently gets the
// by-name diff path (Graph.JournalComplete gates the shortcut). This
// bounds the store's historic growth to the retention window plus
// per-name version lists, which grow only with genuine churn.
func (b *Builder) PruneJournal(upTo int64) {
	st := b.st
	b.lock()
	for e := st.journalFloor + 1; e <= upTo; e++ {
		delete(st.touched, e)
	}
	if upTo > st.journalFloor {
		st.journalFloor = upTo
	}
	b.unlock()
}

// TakeLateAttached returns and clears the set of host ids — all below the
// previous epoch's host count — whose address chain was attached since
// the previous FinishEpoch. These are the only hosts through which an
// already-finalized epoch's dependency structure can differ from the next
// epoch's: a delegation chain whose TCB avoids all of them has an
// identical TCB and min-cut digraph in both epochs, so a per-chain
// analysis memo keeps every entry across an epoch that reports none. Call
// it between FinishEpoch and the next batch of events.
func (b *Builder) TakeLateAttached() []int32 {
	if len(b.lateAttached) == 0 {
		return nil
	}
	out := make([]int32, 0, len(b.lateAttached))
	for hid := range b.lateAttached {
		out = append(out, hid)
	}
	clear(b.lateAttached)
	sortUnique(&out)
	return out
}
