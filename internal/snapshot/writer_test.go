package snapshot

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// encoder is what Writer and the reference refWriter share.
type encoder interface {
	Begin(name string)
	Write(p []byte) (int, error)
	Pad8()
	U32(v uint32)
	U64(v uint64)
	I32(v int32)
	I64(v int64)
	I32s(v []int32)
	I64s(v []int64)
	Finish() error
}

// writeStringsByField is WriteStringTable as it stood before its
// offsets went out as one array: one U32 and one Write per string.
func writeStringsByField(w encoder, strs []string) error {
	w.U64(uint64(len(strs)))
	var end uint64
	for _, s := range strs {
		end += uint64(len(s))
		if end > math.MaxUint32 {
			return errors.New("snapshot: string table exceeds 4 GiB")
		}
		w.U32(uint32(end))
	}
	w.Pad8()
	for _, s := range strs {
		if _, err := w.Write([]byte(s)); err != nil {
			return err
		}
	}
	w.Pad8()
	return nil
}

// TestWriterMatchesReference drives Writer and the reference writer
// through the same seeded op sequences — fields, arrays and raw writes
// on both sides of the block size, string tables with more offsets than
// one block holds, padding — and requires the same bytes.
func TestWriterMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, want bytes.Buffer
		w, ref := NewWriter(&got), newRefWriter(&want)
		size := func() int {
			if rng.Intn(4) == 0 {
				return rng.Intn(3 * bufSize / 4)
			}
			return rng.Intn(40)
		}
		for s := rng.Intn(12); s >= 0; s-- {
			name := string(rune('a'+s)) + "/sec"
			w.Begin(name)
			ref.Begin(name)
			for op := rng.Intn(30); op >= 0; op-- {
				switch rng.Intn(8) {
				case 0:
					v := rng.Uint32()
					w.U32(v)
					ref.U32(v)
				case 1:
					v := rng.Uint64()
					w.U64(v)
					ref.U64(v)
				case 2:
					v := make([]int32, size())
					for i := range v {
						v[i] = rng.Int31()
					}
					w.I32s(v)
					ref.I32s(v)
				case 3:
					v := make([]int64, size()/2)
					for i := range v {
						v[i] = rng.Int63()
					}
					w.Pad8()
					ref.Pad8()
					w.I64s(v)
					ref.I64s(v)
				case 4:
					p := make([]byte, size()*4)
					rng.Read(p)
					w.Write(p)
					ref.Write(p)
				case 5:
					w.Pad8()
					ref.Pad8()
				case 6:
					strs := make([]string, size())
					for i := range strs {
						b := make([]byte, rng.Intn(30))
						rng.Read(b)
						strs[i] = string(b)
					}
					if err := WriteStringTable(w, strs); err != nil {
						t.Fatal(err)
					}
					if err := writeStringsByField(ref, strs); err != nil {
						t.Fatal(err)
					}
				case 7:
					v := int32(rng.Uint32())
					w.I32(v)
					ref.I32(v)
				}
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: Writer wrote %d bytes differing from the reference's %d", seed, got.Len(), want.Len())
		}
		if _, err := Read(bytes.NewReader(got.Bytes())); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestWriterOutsideSection checks a field written before any section
// poisons the Writer, as the reference's does.
func TestWriterOutsideSection(t *testing.T) {
	for name, e := range map[string]encoder{"Writer": NewWriter(&bytes.Buffer{}), "reference": newRefWriter(&bytes.Buffer{})} {
		e.U32(1)
		e.Begin("a")
		if err := e.Finish(); err == nil {
			t.Errorf("%s: a field outside a section finished without error", name)
		}
	}
}
