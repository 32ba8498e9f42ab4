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

// nsKind classifies a successful reply to an NS question by what the
// descent does with it.
type nsKind uint8

const (
	// nsLame: no answer, no authority, not authoritative.
	nsLame nsKind = iota
	// nsNoCut: authoritative NODATA, so the label is interior to the zone.
	nsNoCut
	// nsAnswer: an answer; its NS hosts (none for, say, a CNAME) reveal a
	// cut on servers shared with the parent.
	nsAnswer
	// nsReferral: a referral to child, with hosts and glue.
	nsReferral
)

// queryFact is all the query memo keeps of one answered question: what
// the walker reads from the reply, taken out once when the reply
// arrives. The reply itself is dropped. Slices are shared with the
// discovery caches (hosts with recordZone, addrs with storeAddrs, a
// fully glued referral's glue with storeServers) and never modified.
type queryFact struct {
	// hosts are the sorted NS hosts of an nsAnswer or nsReferral.
	hosts []string
	// more is nil unless the fact is a failure, a referral or an address
	// answer. NODATA alone is over half of a crawl's questions, so most
	// facts are just a map slot.
	more  *factMore
	rcode dnswire.RCode
	kind  nsKind
}

// factMore is what only some facts carry, kept behind a pointer so a
// fact without it costs 40 bytes.
type factMore struct {
	// err is the transport failure; the fact is otherwise zero.
	err error
	// child is the apex an nsReferral delegates to, and glue the first
	// glue address of each of its hosts that has one, in host order.
	child string
	glue  []ServerAddr
	// addrs are the A records answering an address question.
	addrs []netip.Addr
}

// err returns the transport failure the fact records, if any.
func (f queryFact) err() error {
	if f.more == nil {
		return nil
	}
	return f.more.err
}

// pendingQuery is a question still crossing the transport. Concurrent
// askers wait on done; fact is written before done closes.
type pendingQuery struct {
	done chan struct{}
	fact queryFact
}

// queryShard is one shard of the walker's query memo table: the fact
// of every answered question, by value, and a small table of the
// questions in flight. The memo gives the engine its strongest
// guarantee: each logical query crosses the transport exactly once per
// walker lifetime, no matter how many workers race to ask it, which
// makes total transport work invariant across worker counts.
type queryShard struct {
	mu      sync.Mutex
	facts   map[queryKey]queryFact
	pending map[queryKey]*pendingQuery
	// errored lists the keys whose fact is a memoized error since the
	// last ForgetFailures, so evicting them does not scan facts.
	errored []queryKey
}
