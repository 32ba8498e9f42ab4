package dnszone

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse feeds the master-file parser arbitrary text. It must never
// panic, and a zone it accepts must survive WriteMaster and a second
// Parse unchanged.
func FuzzParse(f *testing.F) {
	var sb strings.Builder
	if err := cornellZone(f).WriteMaster(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String(), "cornell.edu")
	f.Add(cornellMaster, "cornell.edu")
	f.Fuzz(func(t *testing.T, text, origin string) {
		z, err := Parse(strings.NewReader(text), origin)
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := z.WriteMaster(&sb); err != nil {
			t.Fatal(err)
		}
		z2, err := Parse(strings.NewReader(sb.String()), z.Origin())
		if err != nil {
			t.Fatalf("re-parse: %v\nzone text:\n%s", err, sb.String())
		}
		if z.origin != z2.origin || z.soa != z2.soa ||
			!reflect.DeepEqual(z.records, z2.records) ||
			!reflect.DeepEqual(z.cuts, z2.cuts) ||
			!reflect.DeepEqual(z.glue, z2.glue) {
			t.Fatalf("zone changed across WriteMaster:\nzone text:\n%s", sb.String())
		}
	})
}
