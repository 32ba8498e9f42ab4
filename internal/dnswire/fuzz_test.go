package dnswire

import (
	"reflect"
	"testing"
)

// FuzzUnpack feeds the decoder arbitrary bytes. It must never panic, and
// a message it accepts and can pack again must decode to itself.
func FuzzUnpack(f *testing.F) {
	for _, m := range []*Message{
		sampleMessage(f),
		allTypesMessage(f),
		NewQuery(1, "example.com", TypeNS, ClassINET),
	} {
		buf, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := Unpack(raw)
		if err != nil {
			return
		}
		buf, err := m.Pack()
		if err != nil {
			return
		}
		got, err := Unpack(buf)
		if err != nil {
			t.Fatalf("Unpack(Pack(m)): %v\nm = %v", err, m)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("Unpack(Pack(m)) differs:\n got %v\nwant %v", got, m)
		}
	})
}
