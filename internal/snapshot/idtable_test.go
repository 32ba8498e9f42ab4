package snapshot

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// writeIDTablePooled is the reference id-table encoder: it copies every
// unique run into one pool slice and writes the pool whole. WriteIDTable
// writes the runs in place and must produce the same bytes.
func writeIDTablePooled(w *Writer, table [][]int32) {
	type sliceKey struct {
		p *int32
		n int
	}
	offs := make(map[sliceKey]uint32)
	var pool []int32
	ents := make([]int32, 0, 2*len(table))
	for _, s := range table {
		switch {
		case s == nil:
			ents = append(ents, -1, 0)
		case len(s) == 0:
			ents = append(ents, 0, 0)
		default:
			k := sliceKey{&s[0], len(s)}
			o, ok := offs[k]
			if !ok {
				o = uint32(len(pool))
				offs[k] = o
				pool = append(pool, s...)
			}
			ents = append(ents, int32(o), int32(len(s)))
		}
	}
	w.U64(uint64(len(table)))
	w.U64(uint64(len(pool)))
	w.I32s(ents)
	w.I32s(pool)
	w.Pad8()
}

func TestWriteIDTableByteIdentical(t *testing.T) {
	// An SCC's members share one closure array; a per-chain TCB is
	// copy-on-write over its predecessor, so prefixes of one backing
	// array appear with different lengths.
	scc := []int32{4, 8, 15, 16, 23, 42}
	odd := []int32{7, 7, 7}
	tables := map[string][][]int32{
		"none":    nil,
		"nil":     {nil, nil},
		"empty":   {{}, {}, nil},
		"aliased": {odd, odd, {7, 7, 7}},
		"scc":     {scc, nil, scc, scc[:3], scc[2:], scc, {}},
		"mixed":   {nil, scc[:1], odd, {}, scc[:1], scc, odd[1:], nil},
	}
	// WriteDistinctIDTable must write the same bytes for every table in
	// which no two non-empty entries share a backing array: not the
	// aliased ones above, but these, one of them longer than a block.
	big := make([][]int32, 3*bufSize/8)
	for i := range big {
		big[i] = make([]int32, i%5)
	}
	distinct := map[string]bool{"none": true, "nil": true, "empty": true, "distinct": true, "big": true}
	tables["distinct"] = [][]int32{{1}, nil, {2, 3}, {}, {4, 5, 6}}
	tables["big"] = big
	for name, table := range tables {
		t.Run(name, func(t *testing.T) {
			encode := func(f func(*Writer, [][]int32)) []byte {
				var buf bytes.Buffer
				w := NewWriter(&buf)
				w.Begin("ids")
				w.U32(1) // misalign the table so both encoders must pad
				f(w, table)
				w.Begin("after")
				w.U64(99)
				if err := w.Finish(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			want, got := encode(writeIDTablePooled), encode(WriteIDTable)
			if !bytes.Equal(got, want) {
				t.Fatalf("WriteIDTable wrote %d bytes differing from the pooled encoder's %d", len(got), len(want))
			}
			if distinct[name] {
				if got := encode(WriteDistinctIDTable); !bytes.Equal(got, want) {
					t.Fatalf("WriteDistinctIDTable wrote %d bytes differing from the pooled encoder's %d", len(got), len(want))
				}
			}
		})
	}
}

func TestReadSizedAndUnsized(t *testing.T) {
	data := buildValid(t)
	readers := map[string]func([]byte) io.Reader{
		"bytes.Buffer":  func(b []byte) io.Reader { return bytes.NewBuffer(b) },
		"bytes.Reader":  func(b []byte) io.Reader { return bytes.NewReader(b) },
		"OneByteReader": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	}
	want, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range readers {
		got, err := Read(mk(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: read a different File", name)
		}
		if _, err := Read(mk(data[:len(data)-5])); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: truncated input read as %v, want ErrTruncated", name, err)
		}
	}

	// A reader whose stated length is short of the data: the rest is
	// drained after the sized read.
	got, err := Read(shortLen{bytes.NewReader(data), len(data) / 3})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("understated length: %v", err)
	}
}

// shortLen understates how much its reader holds.
type shortLen struct {
	*bytes.Reader
	n int
}

func (s shortLen) Len() int { return s.n }
