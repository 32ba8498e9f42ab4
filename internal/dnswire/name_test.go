package dnswire

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendNameRoot(t *testing.T) {
	buf, err := AppendName(nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0}) {
		t.Errorf("root encodes to %v, want [0]", buf)
	}
}

func TestAppendNameSimple(t *testing.T) {
	buf, err := AppendName(nil, "www.cs.cornell.edu", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("\x03www\x02cs\x07cornell\x03edu\x00")
	if !bytes.Equal(buf, want) {
		t.Errorf("got %q, want %q", buf, want)
	}
}

func TestNameRoundTrip(t *testing.T) {
	names := []string{
		"", "com", "cornell.edu", "www.cs.cornell.edu",
		"a.gtld-servers.net", "reston-ns2.telemail.net",
		strings.Repeat("a", 63) + ".example.com",
	}
	for _, name := range names {
		buf, err := AppendName(nil, name, nil)
		if err != nil {
			t.Fatalf("AppendName(%q): %v", name, err)
		}
		got, next, err := UnpackName(buf, 0)
		if err != nil {
			t.Fatalf("UnpackName(%q): %v", name, err)
		}
		if got != name {
			t.Errorf("round trip of %q gave %q", name, got)
		}
		if next != len(buf) {
			t.Errorf("next offset = %d, want %d", next, len(buf))
		}
	}
}

func TestNameRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		name := randomWireName(r)
		buf, err := AppendName(nil, name, nil)
		if err != nil {
			return false
		}
		got, _, err := UnpackName(buf, 0)
		return err == nil && got == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAppendNameTooLong(t *testing.T) {
	long := strings.Repeat("abcdefgh.", 31) + "com" // > 255 wire octets
	if _, err := AppendName(nil, long, nil); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("got %v, want ErrNameTooLong", err)
	}
}

func TestAppendNameLabelTooLong(t *testing.T) {
	bad := strings.Repeat("a", 64) + ".com"
	if _, err := AppendName(nil, bad, nil); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("got %v, want ErrLabelTooLong", err)
	}
}

func TestCompression(t *testing.T) {
	c := NewCompressor()
	buf, err := AppendName(nil, "ns1.cornell.edu", c)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	buf, err = AppendName(buf, "ns2.cornell.edu", c)
	if err != nil {
		t.Fatal(err)
	}
	// Second name should be "ns2" + pointer: 1+3+2 = 6 bytes.
	if len(buf)-first != 6 {
		t.Errorf("compressed name used %d bytes, want 6", len(buf)-first)
	}
	got1, next, err := UnpackName(buf, 0)
	if err != nil || got1 != "ns1.cornell.edu" {
		t.Fatalf("first = %q, %v", got1, err)
	}
	got2, _, err := UnpackName(buf, next)
	if err != nil || got2 != "ns2.cornell.edu" {
		t.Fatalf("second = %q, %v", got2, err)
	}
}

func TestCompressionExactRepeat(t *testing.T) {
	c := NewCompressor()
	buf, _ := AppendName(nil, "cornell.edu", c)
	first := len(buf)
	buf, _ = AppendName(buf, "cornell.edu", c)
	if len(buf)-first != 2 {
		t.Errorf("repeated name used %d bytes, want a 2-byte pointer", len(buf)-first)
	}
	got, _, err := UnpackName(buf, first)
	if err != nil || got != "cornell.edu" {
		t.Errorf("got %q, %v", got, err)
	}
}

func TestUnpackNameUppercaseFolds(t *testing.T) {
	buf := []byte("\x03WWW\x07Cornell\x03EDU\x00")
	got, _, err := UnpackName(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != "www.cornell.edu" {
		t.Errorf("got %q, want lower-cased name", got)
	}
}

func TestUnpackNamePointerLoop(t *testing.T) {
	// A name that is a pointer to itself.
	self := []byte{0xC0, 0x00}
	if _, _, err := UnpackName(self, 0); !errors.Is(err, ErrCompressionLoop) {
		t.Errorf("self-pointer: got %v, want ErrCompressionLoop", err)
	}
	// Two pointers pointing at each other.
	mutual := []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := UnpackName(mutual, 2); !errors.Is(err, ErrCompressionLoop) {
		t.Errorf("mutual pointers: got %v, want ErrCompressionLoop", err)
	}
	// Forward pointer (never valid: targets must precede the pointer).
	fwd := []byte{0xC0, 0x02, 0x01, 'a', 0x00}
	if _, _, err := UnpackName(fwd, 0); !errors.Is(err, ErrCompressionLoop) {
		t.Errorf("forward pointer: got %v, want ErrCompressionLoop", err)
	}
}

func TestUnpackNamePointerOutOfRange(t *testing.T) {
	buf := []byte{0x01, 'a', 0x00, 0xC0, 0x7F}
	if _, _, err := UnpackName(buf, 3); !errors.Is(err, ErrBadPointer) {
		t.Errorf("got %v, want ErrBadPointer", err)
	}
}

func TestUnpackNameShort(t *testing.T) {
	cases := [][]byte{
		{},          // empty
		{0x03, 'a'}, // truncated label
		{0x05},      // length with no data
		{0xC0},      // truncated pointer
		{0x01, 'a'}, // missing terminator
	}
	for _, buf := range cases {
		if _, _, err := UnpackName(buf, 0); !errors.Is(err, ErrShortMessage) {
			t.Errorf("UnpackName(%v): got %v, want ErrShortMessage", buf, err)
		}
	}
}

func TestUnpackNameBadLabelType(t *testing.T) {
	for _, b := range []byte{0x40, 0x80} {
		buf := []byte{b, 0x00}
		if _, _, err := UnpackName(buf, 0); !errors.Is(err, ErrBadLabelType) {
			t.Errorf("label type %#x: got %v, want ErrBadLabelType", b, err)
		}
	}
}

// TestUnpackNameEscapesDotInLabel: a label holding '.' or '\\' decodes
// escaped, so it never reads as more labels than the wire carries, and
// packs back to the same octets.
func TestUnpackNameEscapesDotInLabel(t *testing.T) {
	for _, tc := range []struct {
		wire []byte
		want string
	}{
		{[]byte{0x07, 'w', 'w', 'w', '.', 'f', 'b', 'i', 0x03, 'g', 'o', 'v', 0x00}, `www\.fbi.gov`},
		{[]byte{0x02, 'a', '.', 0x00}, `a\.`},
		{[]byte{0x02, 'a', '\\', 0x01, 'b', 0x00}, `a\\.b`},
		{[]byte{0x04, 'a', '\\', '.', 'b', 0x00}, `a\\\.b`},
		{[]byte{0x01, '.', 0x00}, `\.`},
	} {
		got, next, err := UnpackName(tc.wire, 0)
		if err != nil || got != tc.want || next != len(tc.wire) {
			t.Errorf("UnpackName(%q) = %q, %d, %v; want %q", tc.wire, got, next, err, tc.want)
			continue
		}
		buf, err := AppendName(nil, got, nil)
		if err != nil || !bytes.Equal(buf, tc.wire) {
			t.Errorf("AppendName(%q) = %q, %v; want %q", got, buf, err, tc.wire)
		}
	}
	if _, err := AppendName(nil, `a\`, nil); !errors.Is(err, ErrBadEscape) {
		t.Errorf("AppendName(a\\): got %v, want ErrBadEscape", err)
	}
}

// TestAppendNameEscapedLength: a name of 255 wire octets packs even
// when escapes make its text longer than 253 bytes.
func TestAppendNameEscapedLength(t *testing.T) {
	label := strings.Repeat(`\.`, 63)
	name := label + "." + label + "." + label + "." + strings.Repeat("x", 61)
	buf, err := AppendName(nil, name, nil)
	if err != nil || len(buf) != maxWireName {
		t.Fatalf("AppendName: %d octets, %v; want %d", len(buf), err, maxWireName)
	}
	if _, err := AppendName(nil, name+"x", nil); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("one octet over: got %v, want ErrNameTooLong", err)
	}
}

func TestUnpackNameNeverPanics(t *testing.T) {
	f := func(raw []byte, off uint8) bool {
		// Must return cleanly (error or not) on arbitrary input.
		_, _, _ = UnpackName(raw, int(off))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// randomWireName generates a random valid canonical name bounded to fit in
// wire format.
func randomWireName(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	n := 1 + r.Intn(6)
	labels := make([]string, n)
	for i := range labels {
		l := make([]byte, 1+r.Intn(20))
		for j := range l {
			l[j] = alphabet[r.Intn(len(alphabet))]
		}
		labels[i] = string(l)
	}
	return strings.Join(labels, ".")
}
