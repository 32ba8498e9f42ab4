package dnswire

import (
	"fmt"
	"net/netip"
	"strings"
)

// RData is the typed payload of a resource record. Implementations pack
// themselves into wire format and render presentation format via String.
//
// Host-name fields inside RDATA (NS, CNAME, PTR, MX, SOA) are packed with
// compression when a Compressor is supplied, as RFC 1035 permits for these
// well-known types.
type RData interface {
	// RType returns the RR type this RDATA belongs to.
	RType() Type
	// appendRData appends the packed RDATA (without the RDLENGTH prefix).
	appendRData(buf []byte, c *Compressor) ([]byte, error)
	// String renders the RDATA in presentation format.
	String() string
}

// A is an IPv4 address record payload (RFC 1035 §3.4.1).
type A struct {
	Addr netip.Addr
}

func (A) RType() Type { return TypeA }

func (a A) appendRData(buf []byte, _ *Compressor) ([]byte, error) {
	if !a.Addr.Is4() {
		return nil, fmt.Errorf("dnswire: A record address %v is not IPv4", a.Addr)
	}
	b := a.Addr.As4()
	return append(buf, b[:]...), nil
}

func (a A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record payload (RFC 3596).
type AAAA struct {
	Addr netip.Addr
}

func (AAAA) RType() Type { return TypeAAAA }

func (a AAAA) appendRData(buf []byte, _ *Compressor) ([]byte, error) {
	if !a.Addr.Is6() || a.Addr.Is4In6() {
		return nil, fmt.Errorf("dnswire: AAAA record address %v is not IPv6", a.Addr)
	}
	b := a.Addr.As16()
	return append(buf, b[:]...), nil
}

func (a AAAA) String() string { return a.Addr.String() }

// NS is a nameserver record payload (RFC 1035 §3.3.11). Host is the
// canonical host name of the authoritative server.
type NS struct {
	Host string
}

func (NS) RType() Type { return TypeNS }

func (n NS) appendRData(buf []byte, c *Compressor) ([]byte, error) {
	return AppendName(buf, n.Host, c)
}

func (n NS) String() string { return presentName(n.Host) }

// CNAME is a canonical-name record payload (RFC 1035 §3.3.1).
type CNAME struct {
	Target string
}

func (CNAME) RType() Type { return TypeCNAME }

func (r CNAME) appendRData(buf []byte, c *Compressor) ([]byte, error) {
	return AppendName(buf, r.Target, c)
}

func (r CNAME) String() string { return presentName(r.Target) }

// PTR is a pointer record payload (RFC 1035 §3.3.12).
type PTR struct {
	Target string
}

func (PTR) RType() Type { return TypePTR }

func (r PTR) appendRData(buf []byte, c *Compressor) ([]byte, error) {
	return AppendName(buf, r.Target, c)
}

func (r PTR) String() string { return presentName(r.Target) }

// MX is a mail-exchanger record payload (RFC 1035 §3.3.9).
type MX struct {
	Preference uint16
	Host       string
}

func (MX) RType() Type { return TypeMX }

func (m MX) appendRData(buf []byte, c *Compressor) ([]byte, error) {
	buf = appendUint16(buf, m.Preference)
	return AppendName(buf, m.Host, c)
}

func (m MX) String() string { return fmt.Sprintf("%d %s", m.Preference, presentName(m.Host)) }

// SOA is a start-of-authority record payload (RFC 1035 §3.3.13).
type SOA struct {
	MName   string // primary nameserver
	RName   string // responsible mailbox, encoded as a domain name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

func (SOA) RType() Type { return TypeSOA }

func (s SOA) appendRData(buf []byte, c *Compressor) ([]byte, error) {
	var err error
	if buf, err = AppendName(buf, s.MName, c); err != nil {
		return nil, err
	}
	if buf, err = AppendName(buf, s.RName, c); err != nil {
		return nil, err
	}
	buf = appendUint32(buf, s.Serial)
	buf = appendUint32(buf, s.Refresh)
	buf = appendUint32(buf, s.Retry)
	buf = appendUint32(buf, s.Expire)
	buf = appendUint32(buf, s.Minimum)
	return buf, nil
}

func (s SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		presentName(s.MName), presentName(s.RName),
		s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

// TXT is a text record payload (RFC 1035 §3.3.14): one or more
// character-strings of at most 255 octets each. version.bind answers
// travel as CH-class TXT records.
type TXT struct {
	Text []string
}

func (TXT) RType() Type { return TypeTXT }

func (t TXT) appendRData(buf []byte, _ *Compressor) ([]byte, error) {
	if len(t.Text) == 0 {
		// RFC 1035 requires at least one character-string; emit an empty one.
		return append(buf, 0), nil
	}
	for _, s := range t.Text {
		if len(s) > 255 {
			return nil, ErrBadStringLength
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

func (t TXT) String() string {
	parts := make([]string, len(t.Text))
	for i, s := range t.Text {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

// Raw carries RDATA of a type this package does not model (including OPT).
// It round-trips opaque bytes so unknown records survive unpack/pack.
type Raw struct {
	Type Type
	Data []byte
}

func (r Raw) RType() Type { return r.Type }

func (r Raw) appendRData(buf []byte, _ *Compressor) ([]byte, error) {
	return append(buf, r.Data...), nil
}

func (r Raw) String() string { return fmt.Sprintf("\\# %d %x", len(r.Data), r.Data) }

func presentName(name string) string {
	if name == "" {
		return "."
	}
	return name + "."
}

// unpackRData decodes the RDATA of the given type from msg[off:off+rdlen].
// Compressed names inside RDATA are resolved against the whole message.
func unpackRData(msg []byte, off, rdlen int, typ Type) (RData, error) {
	end := off + rdlen
	if end > len(msg) {
		return nil, ErrShortMessage
	}
	switch typ {
	case TypeA:
		if rdlen != 4 {
			return nil, ErrBadRDLength
		}
		return A{Addr: netip.AddrFrom4([4]byte(msg[off:end]))}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, ErrBadRDLength
		}
		return AAAA{Addr: netip.AddrFrom16([16]byte(msg[off:end]))}, nil
	case TypeNS, TypeCNAME, TypePTR:
		host, next, err := UnpackName(msg, off)
		if err != nil {
			return nil, err
		}
		if next != end {
			return nil, ErrBadRDLength
		}
		switch typ {
		case TypeNS:
			return NS{Host: host}, nil
		case TypeCNAME:
			return CNAME{Target: host}, nil
		default:
			return PTR{Target: host}, nil
		}
	case TypeMX:
		pref, noff, err := readUint16(msg, off)
		if err != nil {
			return nil, err
		}
		host, next, err := UnpackName(msg, noff)
		if err != nil {
			return nil, err
		}
		if next != end {
			return nil, ErrBadRDLength
		}
		return MX{Preference: pref, Host: host}, nil
	case TypeSOA:
		mname, noff, err := UnpackName(msg, off)
		if err != nil {
			return nil, err
		}
		rname, noff, err := UnpackName(msg, noff)
		if err != nil {
			return nil, err
		}
		var s SOA
		s.MName, s.RName = mname, rname
		if s.Serial, noff, err = readUint32(msg, noff); err != nil {
			return nil, err
		}
		if s.Refresh, noff, err = readUint32(msg, noff); err != nil {
			return nil, err
		}
		if s.Retry, noff, err = readUint32(msg, noff); err != nil {
			return nil, err
		}
		if s.Expire, noff, err = readUint32(msg, noff); err != nil {
			return nil, err
		}
		if s.Minimum, noff, err = readUint32(msg, noff); err != nil {
			return nil, err
		}
		if noff != end {
			return nil, ErrBadRDLength
		}
		return s, nil
	case TypeTXT:
		if rdlen == 0 {
			// RFC 1035 §3.3.14 asks for one or more character-strings;
			// read none as the one empty string Pack writes for it.
			return TXT{Text: []string{""}}, nil
		}
		var texts []string
		p := off
		for p < end {
			n := int(msg[p])
			p++
			if p+n > end {
				return nil, ErrBadStringLength
			}
			texts = append(texts, string(msg[p:p+n]))
			p += n
		}
		return TXT{Text: texts}, nil
	default:
		data := make([]byte, rdlen)
		copy(data, msg[off:end])
		return Raw{Type: typ, Data: data}, nil
	}
}
