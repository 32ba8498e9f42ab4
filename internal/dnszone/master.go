package dnszone

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
)

// Parse reads a zone in a subset of RFC 1035 master-file format:
// ';' comments, $ORIGIN and $TTL directives, '@' for the origin, relative
// and absolute owner names, and the record types this package models
// (SOA, NS, A, AAAA, CNAME, MX, TXT, PTR). Parenthesized multi-line SOA
// records are supported.
//
// NS records owned by a name below the apex become delegation cuts, and
// address records below a cut become glue, matching how an authoritative
// server treats such data.
func Parse(r io.Reader, origin string) (*Zone, error) {
	origin = dnsname.Canonical(origin)
	if err := dnsname.Check(origin); err != nil {
		return nil, fmt.Errorf("dnszone: bad origin %q: %w", origin, err)
	}
	p := &parser{origin: origin, ttl: DefaultTTL}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	var pending []string // accumulates a parenthesized record
	depth := 0
	for sc.Scan() {
		lineno++
		line := stripComment(sc.Text())
		if strings.TrimSpace(line) == "" && depth == 0 {
			continue
		}
		depth += strings.Count(line, "(") - strings.Count(line, ")")
		if depth < 0 {
			return nil, fmt.Errorf("dnszone: line %d: unbalanced parentheses", lineno)
		}
		pending = append(pending, line)
		if depth > 0 {
			continue
		}
		full := strings.Join(pending, " ")
		pending = pending[:0]
		full = strings.NewReplacer("(", " ", ")", " ").Replace(full)
		if err := p.line(full); err != nil {
			return nil, fmt.Errorf("dnszone: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if depth != 0 {
		return nil, fmt.Errorf("dnszone: unclosed parenthesized record")
	}
	return p.build()
}

type parsedRR struct {
	rr dnswire.RR
}

type parser struct {
	origin    string
	ttl       uint32
	lastOwner string
	soa       *dnswire.SOA
	rrs       []parsedRR
}

func stripComment(line string) string {
	// TXT strings may contain ';'; handle quoting.
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

func (p *parser) line(line string) error {
	fields := tokenize(line)
	if len(fields) == 0 {
		return nil
	}
	switch strings.ToUpper(fields[0]) {
	case "$ORIGIN":
		if len(fields) != 2 {
			return fmt.Errorf("$ORIGIN wants one argument")
		}
		origin := dnsname.Canonical(fields[1])
		if err := dnsname.Check(origin); err != nil {
			return fmt.Errorf("bad $ORIGIN %q: %w", fields[1], err)
		}
		p.origin = origin
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return fmt.Errorf("$TTL wants one argument")
		}
		n, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad $TTL %q", fields[1])
		}
		p.ttl = uint32(n)
		return nil
	}

	// Owner is present unless the line started with whitespace.
	owner := p.lastOwner
	if !strings.HasPrefix(line, " ") && !strings.HasPrefix(line, "\t") {
		var err error
		if owner, err = p.absName(fields[0]); err != nil {
			return err
		}
		fields = fields[1:]
	}
	if owner == "" && p.origin != "" && p.lastOwner == "" {
		return fmt.Errorf("record with no owner")
	}
	p.lastOwner = owner

	ttl := p.ttl
	class := dnswire.ClassINET
	// Optional TTL and class may appear in either order.
	for len(fields) > 0 {
		f := strings.ToUpper(fields[0])
		if n, err := strconv.ParseUint(fields[0], 10, 32); err == nil {
			ttl = uint32(n)
			fields = fields[1:]
			continue
		}
		if f == "IN" || f == "CH" {
			if f == "CH" {
				class = dnswire.ClassCHAOS
			}
			fields = fields[1:]
			continue
		}
		break
	}
	if len(fields) == 0 {
		return fmt.Errorf("record %q has no type", owner)
	}
	typ := strings.ToUpper(fields[0])
	rdata := fields[1:]
	data, err := p.rdata(typ, rdata)
	if err != nil {
		return err
	}
	rr := dnswire.RR{Name: owner, Class: class, TTL: ttl, Data: data}
	if soa, ok := data.(dnswire.SOA); ok {
		p.soa = &soa
		if owner != p.origin {
			return fmt.Errorf("SOA owner %q is not the origin %q", owner, p.origin)
		}
		return nil
	}
	p.rrs = append(p.rrs, parsedRR{rr: rr})
	return nil
}

// tokenize splits on whitespace but keeps quoted strings whole.
func tokenize(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}

// absName resolves a name token against the origin. It rejects a name
// that is not a valid host name (dnsname.Check): one holding a space, a
// quote or a ';' could not be written back by WriteMaster.
func (p *parser) absName(token string) (string, error) {
	name := p.origin
	switch {
	case token == "@":
	case strings.HasSuffix(token, "."):
		name = dnsname.Canonical(token)
	default:
		name = dnsname.Join(token, p.origin)
	}
	if err := dnsname.Check(name); err != nil {
		return "", fmt.Errorf("bad name %q: %w", token, err)
	}
	return name, nil
}

func (p *parser) rdata(typ string, fields []string) (dnswire.RData, error) {
	need := func(n int) error {
		if len(fields) != n {
			return fmt.Errorf("%s record wants %d fields, got %d", typ, n, len(fields))
		}
		return nil
	}
	switch typ {
	case "A":
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("bad A address %q", fields[0])
		}
		return dnswire.A{Addr: addr}, nil
	case "AAAA":
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil || !addr.Is6() {
			return nil, fmt.Errorf("bad AAAA address %q", fields[0])
		}
		return dnswire.AAAA{Addr: addr}, nil
	case "NS", "CNAME", "PTR":
		if err := need(1); err != nil {
			return nil, err
		}
		name, err := p.absName(fields[0])
		if err != nil {
			return nil, err
		}
		switch typ {
		case "NS":
			return dnswire.NS{Host: name}, nil
		case "CNAME":
			return dnswire.CNAME{Target: name}, nil
		}
		return dnswire.PTR{Target: name}, nil
	case "MX":
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad MX preference %q", fields[0])
		}
		host, err := p.absName(fields[1])
		if err != nil {
			return nil, err
		}
		return dnswire.MX{Preference: uint16(pref), Host: host}, nil
	case "TXT":
		if len(fields) == 0 {
			return nil, fmt.Errorf("TXT record wants at least one string")
		}
		return dnswire.TXT{Text: fields}, nil
	case "SOA":
		if err := need(7); err != nil {
			return nil, err
		}
		nums := make([]uint32, 5)
		for i, f := range fields[2:] {
			n, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad SOA field %q", f)
			}
			nums[i] = uint32(n)
		}
		mname, err := p.absName(fields[0])
		if err != nil {
			return nil, err
		}
		rname, err := p.absName(fields[1])
		if err != nil {
			return nil, err
		}
		return dnswire.SOA{
			MName: mname, RName: rname,
			Serial: nums[0], Refresh: nums[1], Retry: nums[2],
			Expire: nums[3], Minimum: nums[4],
		}, nil
	default:
		return nil, fmt.Errorf("unsupported record type %q", typ)
	}
}

// build assembles the Zone, classifying sub-apex NS records as cuts and
// addresses beneath cuts as glue.
func (p *parser) build() (*Zone, error) {
	z := New(p.origin)
	if p.soa != nil {
		z.SetSOA(*p.soa)
	}
	// First pass: find delegation cuts.
	cutHosts := map[string][]string{}
	for _, pr := range p.rrs {
		if ns, ok := pr.rr.Data.(dnswire.NS); ok && pr.rr.Name != p.origin {
			cutHosts[pr.rr.Name] = append(cutHosts[pr.rr.Name], ns.Host)
		}
	}
	for child, hosts := range cutHosts {
		if err := z.Delegate(child, hosts...); err != nil {
			return nil, err
		}
	}
	// Second pass: insert everything else, routing glue appropriately.
	for _, pr := range p.rrs {
		rr := pr.rr
		if _, isNS := rr.Data.(dnswire.NS); isNS && rr.Name != p.origin {
			continue // handled as a cut
		}
		z.mu.RLock()
		cut := z.cutCoveringLocked(rr.Name)
		z.mu.RUnlock()
		if cut != "" {
			switch d := rr.Data.(type) {
			case dnswire.A:
				if err := z.AddGlue(rr.Name, d.Addr); err != nil {
					return nil, err
				}
			case dnswire.AAAA:
				if err := z.AddGlue(rr.Name, d.Addr); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("dnszone: non-address record %q beneath cut %q", rr.Name, cut)
			}
			continue
		}
		if err := z.AddRR(rr); err != nil {
			return nil, err
		}
	}
	return z, nil
}

// WriteMaster serializes the zone in master-file format, deterministically
// ordered, suitable for re-parsing with Parse.
func (z *Zone) WriteMaster(w io.Writer) error {
	z.mu.RLock()
	defer z.mu.RUnlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "$ORIGIN %s\n$TTL %d\n", presentOrigin(z.origin), DefaultTTL)
	soaRR := dnswire.RR{Name: z.origin, Class: dnswire.ClassINET, TTL: DefaultTTL, Data: z.soa}
	writeRR(bw, soaRR)

	names := make([]string, 0, len(z.records))
	for n := range z.records {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return dnsname.Compare(names[i], names[j]) < 0 })
	for _, n := range names {
		types := make([]int, 0, len(z.records[n]))
		for t := range z.records[n] {
			types = append(types, int(t))
		}
		sort.Ints(types)
		for _, t := range types {
			for _, rr := range z.records[n][dnswire.Type(t)] {
				writeRR(bw, rr)
			}
		}
	}

	cuts := make([]string, 0, len(z.cuts))
	for c := range z.cuts {
		cuts = append(cuts, c)
	}
	sort.Strings(cuts)
	for _, c := range cuts {
		for _, rr := range z.cuts[c] {
			writeRR(bw, rr)
		}
	}
	glues := make([]string, 0, len(z.glue))
	for g := range z.glue {
		glues = append(glues, g)
	}
	sort.Strings(glues)
	for _, g := range glues {
		for _, rr := range z.glue[g] {
			writeRR(bw, rr)
		}
	}
	return bw.Flush()
}

func writeRR(w io.Writer, rr dnswire.RR) {
	data := rr.Data.String()
	if txt, ok := rr.Data.(dnswire.TXT); ok {
		// Parse reads quoted strings verbatim, with no escapes, so write
		// them that way rather than in TXT's Go-quoted String form.
		data = `"` + strings.Join(txt.Text, `" "`) + `"`
	}
	fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\n",
		presentOrigin(rr.Name), rr.TTL, rr.Class, rr.Type(), data)
}
