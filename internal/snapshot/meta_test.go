package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

func TestShardMetaRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("other")
	w.U64(7)
	want := ShardMeta{Shard: "shard-east-1", Generation: 42, CorpusHash: 0xdeadbeefcafef00d}
	if err := WriteShardMeta(w, want); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadShardMeta(f)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("shard/meta section not found after writing it")
	}
	if got != want {
		t.Fatalf("ReadShardMeta = %+v, want %+v", got, want)
	}
}

// TestShardMetaAbsent pins the compatibility contract: a snapshot
// without the optional section reads back as (zero, ok=false, nil
// error), not a decode failure.
func TestShardMetaAbsent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("other")
	w.U64(7)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := ReadShardMeta(f)
	if err != nil {
		t.Fatalf("absent shard/meta must not error, got %v", err)
	}
	if ok || m != (ShardMeta{}) {
		t.Fatalf("absent shard/meta read back as (%+v, %v), want zero and false", m, ok)
	}
}

func TestIDTableRoundTrip(t *testing.T) {
	shared := []int32{1, 2, 3}
	table := [][]int32{nil, {}, shared, shared, {9}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("ids")
	WriteIDTable(w, table)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d := NewSectionReader(f, "ids")
	got := ReadIDTable(d, 10)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(table) {
		t.Fatalf("table length %d, want %d", len(got), len(table))
	}
	if got[0] != nil {
		t.Fatalf("nil entry read back as %v", got[0])
	}
	if got[1] == nil || len(got[1]) != 0 {
		t.Fatalf("empty entry read back as %v", got[1])
	}
	for i := 2; i <= 3; i++ {
		if len(got[i]) != 3 || got[i][0] != 1 || got[i][2] != 3 {
			t.Fatalf("entry %d read back as %v", i, got[i])
		}
	}
	// Aliasing identity survives the round trip: both shared entries
	// must view the same pool run.
	if &got[2][0] != &got[3][0] {
		t.Fatal("aliased entries no longer share backing after round trip")
	}
	if len(got[4]) != 1 || got[4][0] != 9 {
		t.Fatalf("tail entry read back as %v", got[4])
	}
	// An id at or past the bound is corrupt, wherever it sits.
	d = NewSectionReader(f, "ids")
	if got := ReadIDTable(d, 9); got != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("id 9 under bound 9: table %v, error %v; want ErrCorrupt", got, d.Err())
	}
}
