package dnswire

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustAddr(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func sampleMessage(t testing.TB) *Message {
	m := NewQuery(0x1234, "www.cs.cornell.edu", TypeA, ClassINET)
	m.Response = true
	m.Authoritative = true
	m.Answers = []RR{
		{Name: "www.cs.cornell.edu", Class: ClassINET, TTL: 3600,
			Data: A{Addr: mustAddr(t, "128.84.154.137")}},
	}
	m.Authority = []RR{
		{Name: "cs.cornell.edu", Class: ClassINET, TTL: 86400, Data: NS{Host: "penguin.cs.cornell.edu"}},
		{Name: "cs.cornell.edu", Class: ClassINET, TTL: 86400, Data: NS{Host: "sunup.cs.cornell.edu"}},
		{Name: "cs.cornell.edu", Class: ClassINET, TTL: 86400, Data: NS{Host: "dns.cs.wisc.edu"}},
	}
	m.Additional = []RR{
		{Name: "penguin.cs.cornell.edu", Class: ClassINET, TTL: 86400,
			Data: A{Addr: mustAddr(t, "128.84.96.10")}},
	}
	return m
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage(t)
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMessageCompressionShrinks(t *testing.T) {
	m := sampleMessage(t)
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Rough uncompressed size: each of the 7 owner/target names would cost
	// ~20 bytes; with compression the message must be far smaller.
	if len(buf) > 180 {
		t.Errorf("packed size %d suggests compression is not working", len(buf))
	}
}

// allTypesMessage carries one record of every RDATA type the package
// models, plus an opaque one.
func allTypesMessage(t testing.TB) *Message {
	m := &Message{Header: Header{ID: 7, Response: true}}
	m.Questions = []Question{{Name: "example.com", Type: TypeANY, Class: ClassINET}}
	m.Answers = []RR{
		{Name: "example.com", Class: ClassINET, TTL: 1, Data: A{Addr: mustAddr(t, "10.0.0.1")}},
		{Name: "example.com", Class: ClassINET, TTL: 2, Data: AAAA{Addr: mustAddr(t, "2001:db8::1")}},
		{Name: "example.com", Class: ClassINET, TTL: 3, Data: NS{Host: "ns1.example.com"}},
		{Name: "alias.example.com", Class: ClassINET, TTL: 4, Data: CNAME{Target: "example.com"}},
		{Name: "1.0.0.10.in-addr.arpa", Class: ClassINET, TTL: 5, Data: PTR{Target: "example.com"}},
		{Name: "example.com", Class: ClassINET, TTL: 6, Data: MX{Preference: 10, Host: "mail.example.com"}},
		{Name: "example.com", Class: ClassINET, TTL: 7, Data: SOA{
			MName: "ns1.example.com", RName: "hostmaster.example.com",
			Serial: 2004072200, Refresh: 7200, Retry: 1800, Expire: 604800, Minimum: 300}},
		{Name: "version.bind", Class: ClassCHAOS, TTL: 0, Data: TXT{Text: []string{"BIND 8.2.4"}}},
		{Name: "example.com", Class: ClassINET, TTL: 9, Data: Raw{Type: Type(99), Data: []byte{1, 2, 3}}},
	}
	return m
}

func TestRoundTripAllRDataTypes(t *testing.T) {
	m := allTypesMessage(t)
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	f := func(id uint16, qr, aa, tc, rd, ra bool, op, rc uint8) bool {
		h := Header{
			ID: id, Response: qr, Authoritative: aa, Truncated: tc,
			RecursionDesired: rd, RecursionAvailable: ra,
			Opcode: Opcode(op & 0xF), RCode: RCode(rc & 0xF),
		}
		m := &Message{Header: h}
		buf, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(buf)
		return err == nil && got.Header == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpackRejectsTrailingBytes(t *testing.T) {
	m := NewQuery(1, "example.com", TypeA, ClassINET)
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0xAB)
	if _, err := Unpack(buf); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("got %v, want ErrTrailingBytes", err)
	}
}

func TestUnpackRejectsHostileCounts(t *testing.T) {
	// Header claiming 65535 answers with no body.
	buf := make([]byte, headerLen)
	buf[6], buf[7] = 0xFF, 0xFF
	if _, err := Unpack(buf); !errors.Is(err, ErrTooManyRecords) {
		t.Errorf("got %v, want ErrTooManyRecords", err)
	}
}

func TestUnpackShortHeader(t *testing.T) {
	if _, err := Unpack([]byte{1, 2, 3}); !errors.Is(err, ErrShortMessage) {
		t.Errorf("got %v, want ErrShortMessage", err)
	}
}

func TestUnpackTruncatedRR(t *testing.T) {
	m := sampleMessage(t)
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for cut := headerLen + 1; cut < len(buf); cut += 7 {
		if _, err := Unpack(buf[:cut]); err == nil {
			t.Errorf("Unpack accepted message truncated to %d bytes", cut)
		}
	}
}

func TestUnpackNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Unpack(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestUnpackFuzzedMutations(t *testing.T) {
	// Bit-flip a valid message at every byte position; Unpack must either
	// succeed or fail cleanly, never panic, and re-packing a successful
	// result must succeed.
	m := sampleMessage(t)
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < len(buf); i++ {
		mut := make([]byte, len(buf))
		copy(mut, buf)
		mut[i] ^= byte(1 << r.Intn(8))
		got, err := Unpack(mut)
		if err != nil {
			continue
		}
		if _, err := got.Pack(); err != nil {
			t.Errorf("re-pack of mutated-but-accepted message failed: %v", err)
		}
	}
}

func TestRDLengthMismatch(t *testing.T) {
	// Hand-build an NS record whose RDLENGTH is longer than the name.
	var buf []byte
	h := Header{ID: 1, Response: true}
	m := &Message{Header: h}
	buf, err := m.appendHeader(nil, 0, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ = AppendName(buf, "x.com", nil)
	buf = appendUint16(buf, uint16(TypeNS))
	buf = appendUint16(buf, uint16(ClassINET))
	buf = appendUint32(buf, 60)
	name, _ := AppendName(nil, "ns.x.com", nil)
	buf = appendUint16(buf, uint16(len(name)+3)) // lie: 3 extra bytes
	buf = append(buf, name...)
	buf = append(buf, 0, 0, 0)
	if _, err := Unpack(buf); !errors.Is(err, ErrBadRDLength) {
		t.Errorf("got %v, want ErrBadRDLength", err)
	}
}

func TestADataValidation(t *testing.T) {
	rr := RR{Name: "x.com", Class: ClassINET, Data: A{Addr: mustAddr(t, "2001:db8::1")}}
	m := &Message{Answers: []RR{rr}}
	if _, err := m.Pack(); err == nil {
		t.Error("packing A record with IPv6 address should fail")
	}
	rr = RR{Name: "x.com", Class: ClassINET, Data: AAAA{Addr: mustAddr(t, "10.0.0.1")}}
	m = &Message{Answers: []RR{rr}}
	if _, err := m.Pack(); err == nil {
		t.Error("packing AAAA record with IPv4 address should fail")
	}
}

// TestUnpackDottedMailbox: an NXDOMAIN reply whose SOA RNAME has the
// label "first.last" decodes, and packs back to the same bytes.
func TestUnpackDottedMailbox(t *testing.T) {
	m := NewQuery(9, "nope.example.com", TypeNS, ClassINET)
	m.Response, m.Authoritative, m.RCode = true, true, RCodeNXDomain
	m.Authority = []RR{{Name: "example.com", Class: ClassINET, TTL: 300, Data: SOA{
		MName: "ns1.example.com", RName: "hostmaster.example.com",
		Serial: 1, Refresh: 7200, Retry: 1800, Expire: 604800, Minimum: 300}}}
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// "first.last" is as long as "hostmaster", so only the label's octets change.
	wire := bytes.Replace(buf, []byte("\x0ahostmaster"), []byte("\x0afirst.last"), 1)
	if bytes.Equal(wire, buf) {
		t.Fatal("RNAME label not found in the packed reply")
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if rname := got.Authority[0].Data.(SOA).RName; rname != `first\.last.example.com` {
		t.Errorf("RName = %q, want %q", rname, `first\.last.example.com`)
	}
	again, err := got.Pack()
	if err != nil || !bytes.Equal(again, wire) {
		t.Errorf("Pack(Unpack(wire)) = %q, %v; want %q", again, err, wire)
	}
}

// TestUnpackEmptyTXT: zero-length TXT RDATA reads as the one empty string
// Pack writes for an empty TXT, so a banner probe answering with it
// decodes.
func TestUnpackEmptyTXT(t *testing.T) {
	m := &Message{Header: Header{ID: 3, Response: true},
		Answers: []RR{{Name: "version.bind", Class: ClassCHAOS, Data: TXT{}}}}
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Drop the one character-string and set RDLENGTH to 0.
	wire := append(buf[:len(buf)-3:len(buf)-3], 0, 0)
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if txt := got.Answers[0].Data.(TXT); !reflect.DeepEqual(txt, TXT{Text: []string{""}}) {
		t.Errorf("got %#v, want one empty string", txt)
	}
}

func TestTXTRoundTripMulti(t *testing.T) {
	data := TXT{Text: []string{"BIND 8.2.4", strings.Repeat("x", 255), ""}}
	m := &Message{Answers: []RR{{Name: "version.bind", Class: ClassCHAOS, Data: data}}}
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	gotTXT := got.Answers[0].Data.(TXT)
	// The empty trailing string is preserved as a zero-length
	// character-string on the wire.
	if !reflect.DeepEqual(gotTXT, data) {
		t.Errorf("got %+v, want %+v", gotTXT, data)
	}
	over := TXT{Text: []string{strings.Repeat("x", 256)}}
	m = &Message{Answers: []RR{{Name: "v", Class: ClassCHAOS, Data: over}}}
	if _, err := m.Pack(); !errors.Is(err, ErrBadStringLength) {
		t.Errorf("got %v, want ErrBadStringLength", err)
	}
}

func TestReply(t *testing.T) {
	q := NewQuery(77, "www.fbi.gov", TypeA, ClassINET)
	q.RecursionDesired = true
	r := q.Reply()
	if !r.Response || r.ID != 77 || !r.RecursionDesired {
		t.Errorf("Reply header wrong: %+v", r.Header)
	}
	if len(r.Questions) != 1 || r.Questions[0] != q.Questions[0] {
		t.Errorf("Reply must echo the question")
	}
}

func TestStringRendering(t *testing.T) {
	m := sampleMessage(t)
	s := m.String()
	for _, want := range []string{"www.cs.cornell.edu.", "NS", "128.84.154.137", "NOERROR"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	rr := RR{Name: "version.bind", Class: ClassCHAOS, TTL: 0, Data: TXT{Text: []string{"BIND 8.2.4"}}}
	if got := rr.String(); !strings.Contains(got, `"BIND 8.2.4"`) || !strings.Contains(got, "CH") {
		t.Errorf("TXT RR string = %q", got)
	}
}

func TestTypeClassStrings(t *testing.T) {
	if TypeNS.String() != "NS" || Type(4242).String() != "TYPE4242" {
		t.Error("Type.String misbehaves")
	}
	if ClassCHAOS.String() != "CH" || Class(9).String() != "CLASS9" {
		t.Error("Class.String misbehaves")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(14).String() != "RCODE14" {
		t.Error("RCode.String misbehaves")
	}
	if OpcodeQuery.String() != "QUERY" || Opcode(7).String() != "OPCODE7" {
		t.Error("Opcode.String misbehaves")
	}
}

func TestAppendPackRequiresEmptyBuffer(t *testing.T) {
	m := NewQuery(1, "example.com", TypeA, ClassINET)
	if _, err := m.AppendPack(make([]byte, 3)); err == nil {
		t.Error("AppendPack should reject non-empty buffers")
	}
}

func TestRRWithoutData(t *testing.T) {
	m := &Message{Answers: []RR{{Name: "x.com", Class: ClassINET}}}
	if _, err := m.Pack(); err == nil {
		t.Error("packing RR without RDATA should fail")
	}
	if (RR{}).Type() != TypeNone {
		t.Error("zero RR should report TypeNone")
	}
}
