package snapshot

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// This file keeps the snapshot Writer as it stood before it buffered
// its own blocks and checksummed them as they leave: a bufio.Writer
// underneath and a CRC update per field. TestWriterMatchesReference
// holds Writer to its bytes.

// refWriter streams a snapshot file section by section. Usage:
//
//	w := snapshot.NewWriter(dst)
//	w.Begin("core/hosts")
//	w.U64(uint64(n))
//	w.I32s(ids)
//	w.Begin("core/zones")
//	...
//	err := w.Finish()
//
// Errors are sticky: any failed write poisons the Writer and Finish
// reports the first one, so encoding code can stay assignment-shaped.
// Writes reach the destination in blocks of bufSize (or larger, for a
// large array); Finish flushes the last one.
type refWriter struct {
	w   *bufio.Writer
	off uint64
	err error

	secs []section
	cur  int    // index into secs of the open section, -1 when none
	crc  uint32 // running CRC of the open section

	num [8]byte // encodes one fixed-width number without an allocation
}

// newRefWriter starts a snapshot stream on w, writing the header. Nothing
// is guaranteed to reach w before Finish.
func newRefWriter(w io.Writer) *refWriter {
	sw := &refWriter{w: bufio.NewWriterSize(w, bufSize), cur: -1}
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	le.PutUint32(hdr[8:], Version)
	sw.raw(hdr[:])
	return sw
}

// raw writes p, tracking the global offset.
func (w *refWriter) raw(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.off += uint64(n)
	w.err = err
}

// align8 pads the stream to an 8-byte boundary.
func (w *refWriter) align8() {
	if p := pad8(w.off); p > 0 {
		w.raw(zeros[:p])
	}
}

// endSection records the open section's final length.
func (w *refWriter) endSection() {
	if w.cur >= 0 {
		s := &w.secs[w.cur]
		s.len = w.off - s.off
		s.crc = w.crc
		w.cur = -1
	}
}

// Begin closes the current section (if any) and opens a new one. Section
// names must be unique, non-empty, and at most 255 bytes.
func (w *refWriter) Begin(name string) {
	w.endSection()
	if w.err == nil && (name == "" || len(name) > 255) {
		w.err = fmt.Errorf("snapshot: invalid section name %q", name)
		return
	}
	w.align8()
	w.secs = append(w.secs, section{name: name, off: w.off})
	w.cur = len(w.secs) - 1
	w.crc = 0
}

// Write appends raw bytes to the open section (io.Writer).
func (w *refWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.cur < 0 {
		w.err = fmt.Errorf("snapshot: Write outside a section")
		return 0, w.err
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.raw(p)
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// Pad8 pads the open section so the next write starts 8-byte aligned
// relative to the file (sections themselves always start aligned).
func (w *refWriter) Pad8() {
	if p := pad8(w.off); p > 0 {
		w.Write(zeros[:p])
	}
}

// U32 writes one little-endian uint32.
func (w *refWriter) U32(v uint32) {
	le.PutUint32(w.num[:4], v)
	w.Write(w.num[:4])
}

// U64 writes one little-endian uint64.
func (w *refWriter) U64(v uint64) {
	le.PutUint64(w.num[:], v)
	w.Write(w.num[:])
}

// I64 writes one little-endian int64.
func (w *refWriter) I64(v int64) { w.U64(uint64(v)) }

// I32 writes one little-endian int32.
func (w *refWriter) I32(v int32) { w.U32(uint32(v)) }

// I32s writes a flat little-endian int32 array.
func (w *refWriter) I32s(v []int32) {
	if len(v) == 0 {
		return
	}
	if nativeLE {
		w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
		return
	}
	for _, x := range v {
		w.I32(x)
	}
}

// I64s writes a flat little-endian int64 array.
func (w *refWriter) I64s(v []int64) {
	if len(v) == 0 {
		return
	}
	if nativeLE {
		w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
		return
	}
	for _, x := range v {
		w.I64(x)
	}
}

// Err reports the sticky error, letting encoders bail out early.
func (w *refWriter) Err() error { return w.err }

// Finish closes the last section and writes the section table and
// trailer. The Writer must not be used afterwards.
func (w *refWriter) Finish() error {
	w.endSection()
	w.align8()
	tableOff := w.off

	// Encode the table into one buffer so it can be CRC'd as a unit.
	var table []byte
	var n8 [8]byte
	le.PutUint64(n8[:], uint64(len(w.secs)))
	table = append(table, n8[:]...)
	for _, s := range w.secs {
		var ent [24]byte
		le.PutUint64(ent[0:], s.off)
		le.PutUint64(ent[8:], s.len)
		le.PutUint32(ent[16:], s.crc)
		le.PutUint32(ent[20:], uint32(len(s.name)))
		table = append(table, ent[:]...)
		table = append(table, s.name...)
		table = append(table, zeros[:pad8(24+uint64(len(s.name)))]...)
	}
	w.raw(table)

	var tr [trailerSize]byte
	le.PutUint64(tr[0:], tableOff)
	le.PutUint64(tr[8:], uint64(len(table)))
	le.PutUint32(tr[16:], crc32.Checksum(table, castagnoli))
	le.PutUint32(tr[20:], Version)
	copy(tr[24:], Magic)
	w.raw(tr[:])
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}
