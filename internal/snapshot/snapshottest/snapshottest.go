// Package snapshottest frames a snapshot's section payloads as fuzz
// input and seals them back into a snapshot with valid checksums, so
// fuzzed or edited bytes reach a section decoder instead of stopping at
// the container's CRCs.
package snapshottest

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dnstrust/internal/snapshot"
)

// Frame encodes f's named sections, in order, as a u32 length and the
// payload each; a missing section frames as empty.
func Frame(f *snapshot.File, sections []string) []byte {
	var out []byte
	for _, name := range sections {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(f.Section(name))))
		out = append(out, f.Section(name)...)
	}
	return out
}

// Seal is Frame's inverse, sealing the payloads with valid checksums.
// Input that ends early leaves the remaining sections out; a length
// past the end takes what is left.
func Seal(t testing.TB, sections []string, data []byte) *snapshot.File {
	var payloads [][]byte
	for len(payloads) < len(sections) && len(data) >= 4 {
		n := min(int(binary.LittleEndian.Uint32(data)), len(data)-4)
		payloads = append(payloads, data[4:4+n])
		data = data[4+n:]
	}
	return seal(t, sections[:len(payloads)], func(w *snapshot.Writer, i int) { w.Write(payloads[i]) })
}

// Rewrite seals f's named sections with section name's payload written
// by write instead of copied.
func Rewrite(t testing.TB, f *snapshot.File, sections []string, name string, write func(w *snapshot.Writer)) *snapshot.File {
	return seal(t, sections, func(w *snapshot.Writer, i int) {
		if sections[i] == name {
			write(w)
		} else {
			w.Write(f.Section(sections[i]))
		}
	})
}

// seal writes the sections, section i's payload by body, and reads the
// file back.
func seal(t testing.TB, sections []string, body func(w *snapshot.Writer, i int)) *snapshot.File {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	for i, sec := range sections {
		w.Begin(sec)
		body(w, i)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatalf("re-reading a sealed snapshot: %v", err)
	}
	return f
}
