package fleet

import (
	"sort"
	"strconv"

	"dnstrust/internal/dnsname"
)

// Ring assigns names to shards by consistent hashing: each shard owns
// a set of virtual points on a 64-bit circle, and a name belongs to
// the shard owning the first point at or after the name's hash. The
// assignment is deterministic in the shard-name set alone — routers
// built independently from the same shard list agree on every name —
// and adding or removing one shard moves only ~1/N of the names.
type Ring struct {
	shards []string
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int32
}

// DefaultReplicas is the virtual-node count per shard when NewRing is
// given zero. Over the seed-1 20k corpus every shard's share of a fair
// load is 0.92–1.07 for 2 to 5 shards and 0.83–1.10 for 8;
// TestRingBalance holds it to ±20%.
const DefaultReplicas = 64

// NewRing builds a ring over the given shard names (order does not
// matter; ties are broken deterministically).
func NewRing(shards []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	r := &Ring{shards: sorted, points: make([]ringPoint, 0, len(sorted)*replicas)}
	for si, s := range sorted {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(s + "#" + strconv.Itoa(i)), shard: int32(si)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the ring's shard names, sorted.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// OwnerIndex returns the index (into Shards()) of the shard owning a
// name. Names are canonicalized first, so "WWW.Example." and
// "www.example" land on the same shard.
func (r *Ring) OwnerIndex(name string) int {
	if len(r.points) == 0 {
		return -1
	}
	hv := ringHash(dnsname.Canonical(name))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hv })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return int(r.points[i].shard)
}

// Owner returns the name of the shard owning a name, or "" for an
// empty ring.
func (r *Ring) Owner(name string) string {
	i := r.OwnerIndex(name)
	if i < 0 {
		return ""
	}
	return r.shards[i]
}

// Assign groups names by owning shard, returned as one slice per
// shard index (aligned with Shards()); names keep their relative
// order within each group.
func (r *Ring) Assign(names []string) [][]string {
	out := make([][]string, len(r.shards))
	for _, n := range names {
		i := r.OwnerIndex(n)
		if i >= 0 {
			out[i] = append(out[i], n)
		}
	}
	return out
}

// ringHash places a key on the circle: FNV-1a, then splitmix64's
// finalizer. FNV-1a alone leaves short keys that differ in their last
// bytes ("s0#0" … "s2#63") clustered on the circle, which gave one of
// three shards two thirds of the corpus; the finalizer spreads them.
// Both halves are fixed functions, so every process agrees on every
// owner (a seeded hash such as hash/maphash would not).
func ringHash(key string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-1a 64 prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
