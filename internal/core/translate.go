package core

// This file is the id-path mirror of the builder's string event API.
// A fleet coordinator replays a shard's already-interned tables into a
// union builder by walking the shard's hosts/zones/chains arrays in id
// order, interning each element here, and recording the returned union
// id in a per-shard remap table; chain zone ids and zone NS host ids
// are translated through those tables before interning. Each hook
// shares its implementation with the string event path, so a graph
// assembled from translated ids is indistinguishable from one
// assembled from the original walker event stream.
//
// Like the rest of the Builder API these methods are single-owner:
// exactly one goroutine (the coordinator's commit path) calls them.

// InternHost interns one nameserver host name and returns its union
// id. Unlike ObserveZone's host interning it never attaches a chain —
// the caller replays the shard's host→chain table explicitly through
// AttachHostChain.
func (b *Builder) InternHost(host string) int32 {
	b.lock()
	defer b.unlock()
	id, _ := b.internHostLocked(host)
	return id
}

// InternZone interns one zone apex with its NS hosts given as already
// translated union host ids, returning the union zone id. First
// observation of an apex wins, matching ObserveZone; the root ("") is
// excluded as throughout the paper and reports -1.
func (b *Builder) InternZone(apex string, nsHosts []int32) int32 {
	if apex == "" {
		return -1
	}
	st := b.st
	st.index()
	b.lock()
	defer b.unlock()
	if zid, ok := st.zoneID[apex]; ok {
		return zid
	}
	zid := int32(len(st.zones))
	st.zones = append(st.zones, apex)
	st.zoneID[apex] = zid
	ids := make([]int32, 0, len(nsHosts))
	ids = append(ids, nsHosts...)
	sortUnique(&ids)
	st.zoneNS = append(st.zoneNS, ids)
	return zid
}

// InternChain interns one delegation chain given as already translated
// union zone ids (in traversal order), deduplicating against every
// chain seen so far, and returns the union chain id. An empty slice
// interns the empty chain.
func (b *Builder) InternChain(zoneIDs []int32) int32 {
	b.lock()
	defer b.unlock()
	return b.internChainFromIDsLocked(zoneIDs)
}

// AttachHostChain assigns host hid's address chain by interned chain
// id. The first attachment wins, matching ObserveChain; attachments to
// hosts already published in a finalized graph are tracked as late so
// TakeLateAttached reports them to per-chain analysis memos.
func (b *Builder) AttachHostChain(hid, cid int32) {
	if b.st.hostChainAt[hid] != 0 {
		return
	}
	b.lock()
	b.attachChainLocked(hid, cid)
	b.unlock()
	if int(hid) < b.epochHosts {
		b.lateAttached[hid] = struct{}{}
	}
}

// CompleteChain records one successfully walked name by interned chain
// id — Complete with the interning already done. It supersedes any
// earlier Fail for the name, and is a no-op (no journal touch, no new
// version) when the mapping is unchanged, which makes replaying a
// shard's full name table idempotent.
func (b *Builder) CompleteChain(name string, cid int32) {
	delete(b.failed, name)
	delete(b.failedChain, name)
	delete(b.pending, name)
	b.lock()
	touched := b.completeLocked(name, cid)
	b.unlock()
	if touched {
		b.touched = append(b.touched, name)
	}
}
