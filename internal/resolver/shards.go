package resolver

import (
	"net/netip"
	"sync"

	"dnstrust/internal/dnswire"
)

// numShards is the walker's cache shard count. Keys (zone apexes, host
// names) hash across shards so concurrent walks contend only when they
// touch the same slice of the namespace, not on one global lock. A power
// of two keeps the index computation a mask.
const numShards = 64

// fnv1a hashes a cache key (FNV-1a, 32-bit).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// cacheShard is one shard of the walker's discovery state. Entries are
// first-write-wins and logically immutable once stored, so readers (and
// the WalkObserver) may share returned values without copying. In
// particular a cached servers slice is handed out as is by deepestKnown
// and only read by descendToZone, dispatch and enterZoneAnswer.
type cacheShard struct {
	mu sync.RWMutex
	// zones caches discovered delegations by apex.
	zones map[string]*ZoneInfo
	// servers caches resolved, usable server addresses per zone apex.
	servers map[string][]ServerAddr
	// addrs caches resolved nameserver host addresses.
	addrs map[string][]netip.Addr
	// chains caches full zone chains per resolved name/host.
	chains map[string][]string
	// hostErr caches hosts whose address resolution failed.
	hostErr map[string]error
}

func (s *cacheShard) init() {
	s.zones = make(map[string]*ZoneInfo)
	s.servers = make(map[string][]ServerAddr)
	s.addrs = make(map[string][]netip.Addr)
	s.chains = make(map[string][]string)
	s.hostErr = make(map[string]error)
}

// queryKey identifies one logical walker query. The answering zone is a
// deterministic function of (name, qtype) for the walker's descent
// pattern — NS probes are always addressed to the zone immediately above
// the probed label, address lookups to the host's authoritative zone —
// so the server list does not participate in the key.
type queryKey struct {
	name  string
	qtype dnswire.Type
}

// queryEntry is a memoized (possibly still in-flight) query result.
// Waiters block on done; resp/err are immutable once done is closed.
type queryEntry struct {
	done chan struct{}
	resp *dnswire.Message
	err  error
}

// queryShard is one shard of the walker's query memo table. The memo
// gives the engine its strongest guarantee: each logical query crosses
// the transport exactly once per walker lifetime, no matter how many
// workers race to ask it, which makes total transport work invariant
// across worker counts.
type queryShard struct {
	mu sync.Mutex
	m  map[queryKey]*queryEntry
	// errored lists the keys whose entry completed with a memoized error
	// since the last ForgetFailures, so evicting them does not scan m.
	errored []queryKey
}
