// Package crawltest drives a core.Builder by hand through seeded
// generations that do what crawls of a generated world rarely do: a
// nameserver published without its address chain gets the chain
// generations later (crawler.CrawlStats.LateAttachedHosts), a host
// published with a hidden banner reveals a vulnerable version
// (RescoredHosts), names are re-chained under a new zone cut, fail, and
// come back. Each generation is published as an engine publishes its
// surveys, for tests of what consumes surveys across commits.
package crawltest

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
)

// Banners a generation assigns to newly seen hosts; the BIND matrix
// scores the first vulnerable and the second safe.
const (
	vulnerableBanner = "BIND 8.2.4"
	safeBanner       = "BIND 9.9.5"
)

var errWalk = errors.New("crawltest: walk failed")

var tlds = []string{"com", "net", "org"}

// name is one name the stream has resolved or failed.
type name struct {
	name, tld, apex string
	rechained       bool
	failed          bool
}

// Stream is one seeded sequence of generations over one store.
type Stream struct {
	rng    *rand.Rand
	b      *core.Builder
	fp     *crawler.Fingerprints
	prev   *crawler.Survey
	gen    int64
	sites  []string // site apexes, in creation order
	names  []*name
	late   []string // published hosts still without an address chain
	fresh  []string // hosts without a chain first seen this generation
	probed int      // hosts that have a banner, in id order
	hidden []int32  // probed hosts whose banner is hidden
}

// NewStream returns a stream with the top-level zones and four hosting
// providers observed and no generation committed yet.
func NewStream(seed int64) *Stream {
	s := &Stream{rng: rand.New(rand.NewSource(seed)), b: core.NewBuilder(0), fp: crawler.NewFingerprints()}
	for _, z := range append(slices.Clone(tlds), "nic.net") {
		s.b.ObserveZone(z, []string{"a.nic.net"})
	}
	s.b.ObserveChain("a.nic.net", []string{"net", "nic.net"})
	for i := 0; i < 4; i++ {
		zone := fmt.Sprintf("hoster%d.net", i)
		s.b.ObserveZone(zone, []string{"ns." + zone})
		s.b.ObserveChain("ns."+zone, []string{"net", zone})
	}
	return s
}

// Next applies events random events — new sites and names, re-chains,
// failures, late chain attachments — commits them as the next
// generation and returns its survey.
func (s *Stream) Next(events int) *crawler.Survey {
	s.Apply(events)
	return s.commit()
}

// Builder returns the builder the stream drives, for tests that save
// it between or in the middle of generations.
func (s *Stream) Builder() *core.Builder { return s.b }

// Apply applies events random events without committing them: the
// next Next commits them with its own.
func (s *Stream) Apply(events int) {
	for i := 0; i < events; i++ {
		switch r := s.rng.Intn(20); {
		case r < 8 || len(s.names) == 0:
			s.site()
		case r < 12:
			s.another()
		case r < 14:
			s.rechain()
		case r < 16:
			s.fail()
		case r < 17:
			s.revive()
		default:
			s.attachLate()
		}
	}
}

// commit finishes the applied events as the next generation.
func (s *Stream) commit() *crawler.Survey {
	g := s.b.FinishEpoch()
	late := s.b.TakeLateAttached()
	s.late = append(s.late, s.fresh...)
	s.fresh = s.fresh[:0]

	// A hidden host published earlier shows a vulnerable version now.
	var rescored []int32
	if len(s.hidden) > 0 && s.rng.Intn(2) == 0 {
		i := s.rng.Intn(len(s.hidden))
		if s.fp.Set(s.hidden[i], vulnerableBanner) {
			rescored = append(rescored, s.hidden[i])
		}
		s.hidden = slices.Delete(s.hidden, i, i+1)
	}
	for ; s.probed < g.NumHosts(); s.probed++ {
		id := int32(s.probed)
		switch s.rng.Intn(3) {
		case 0:
			s.hidden = append(s.hidden, id)
		case 1:
			s.fp.Set(id, vulnerableBanner)
		default:
			s.fp.Set(id, safeBanner)
		}
	}

	var prev *core.Graph
	if s.prev != nil {
		prev = s.prev.Graph
	}
	s.gen++
	s.prev = s.fp.Publish(g, prev, s.b.Failed(), crawler.CrawlStats{
		Generation:        s.gen,
		LateAttachedHosts: late,
		RescoredHosts:     rescored,
	}, nil)
	return s.prev
}

// PruneJournal discards the store's change journals at and below epoch,
// as a monitor does when a generation leaves its retention window.
func (s *Stream) PruneJournal(epoch int64) { s.b.PruneJournal(epoch) }

// site observes a new site zone served by its own host plus, at random,
// a hosting provider's, another site's host, or a host whose address
// chain is not known yet; then resolves www under it.
func (s *Stream) site() {
	k := len(s.sites)
	tld := tlds[k%len(tlds)]
	apex := fmt.Sprintf("site%d.%s", k, tld)
	own := "ns1." + apex
	ns := []string{own}
	switch s.rng.Intn(4) {
	case 0:
		ns = append(ns, fmt.Sprintf("ns.hoster%d.net", s.rng.Intn(4)))
	case 1:
		if k > 0 {
			ns = append(ns, "ns1."+s.sites[s.rng.Intn(k)])
		}
	case 2:
		h := fmt.Sprintf("ns.late%d.org", k)
		ns = append(ns, h)
		s.fresh = append(s.fresh, h)
	}
	s.b.ObserveZone(apex, ns)
	s.b.ObserveChain(own, []string{tld, apex})
	s.sites = append(s.sites, apex)
	s.complete(&name{name: "www." + apex, tld: tld, apex: apex})
}

// another resolves one more name under an existing site.
func (s *Stream) another() {
	apex := s.sites[s.rng.Intn(len(s.sites))]
	tld := apex[len(apex)-3:]
	s.complete(&name{name: fmt.Sprintf("n%d.%s", len(s.names), apex), tld: tld, apex: apex})
}

func (s *Stream) complete(n *name) {
	s.b.Complete(n.name, []string{n.tld, n.apex})
	s.names = append(s.names, n)
}

// pick returns a random name in the given state, or nil.
func (s *Stream) pick(failed bool) *name {
	for try := 0; try < 8; try++ {
		if n := s.names[s.rng.Intn(len(s.names))]; n.failed == failed {
			return n
		}
	}
	return nil
}

// rechain delegates a resolved name's own zone, moving the name onto a
// longer chain.
func (s *Stream) rechain() {
	n := s.pick(false)
	if n == nil || n.rechained {
		return
	}
	n.rechained = true
	s.b.ObserveZone(n.name, []string{"ns1." + n.apex, fmt.Sprintf("ns.hoster%d.net", s.rng.Intn(4))})
	s.b.Complete(n.name, []string{n.tld, n.apex, n.name})
}

// fail fails the walk of a resolved name, or of a name never seen.
func (s *Stream) fail() {
	if s.rng.Intn(2) == 0 {
		if n := s.pick(false); n != nil {
			n.failed = true
			s.b.Fail(n.name, errWalk)
		}
		return
	}
	s.b.Fail(fmt.Sprintf("gone%d.%s", len(s.names), s.sites[s.rng.Intn(len(s.sites))]), errWalk)
}

// revive resolves a failed name again, on the chain it had.
func (s *Stream) revive() {
	n := s.pick(true)
	if n == nil {
		return
	}
	n.failed = false
	chain := []string{n.tld, n.apex}
	if n.rechained {
		chain = append(chain, n.name)
	}
	s.b.Complete(n.name, chain)
}

// attachLate supplies the address chain of a host published without
// one, through a zone served by a hosting provider or by a site's host.
func (s *Stream) attachLate() {
	if len(s.late) == 0 {
		return
	}
	i := s.rng.Intn(len(s.late))
	h := s.late[i]
	s.late = slices.Delete(s.late, i, i+1)
	zone := h[len("ns."):]
	ns := fmt.Sprintf("ns.hoster%d.net", s.rng.Intn(4))
	if s.rng.Intn(2) == 0 {
		ns = "ns1." + s.sites[s.rng.Intn(len(s.sites))]
	}
	s.b.ObserveZone(zone, []string{ns})
	s.b.ObserveChain(h, []string{"org", zone})
}
