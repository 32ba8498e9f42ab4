package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// Writer streams a snapshot file section by section. Usage:
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
// large array); Finish flushes the last one. A section's checksum is
// taken over each block as it leaves, not per field, so a fixed-width
// number costs a bounds check and a store.
type Writer struct {
	dst io.Writer
	buf []byte // encoded bytes not yet handed to dst (cap bufSize)
	off uint64 // stream offset just past buf
	err error

	secs []section
	cur  int    // index into secs of the open section, -1 when none
	crc  uint32 // CRC of the open section's bytes before buf[crcFrom:]
	// crcFrom is where the open section's bytes not yet in crc start in
	// buf; it equals len(buf) whenever no section is open.
	crcFrom int
}

// bufSize is the block size a Writer hands its destination: a snapshot
// is mostly short strings and offsets, and a write(2) per field would
// cost more than encoding it.
const bufSize = 32 << 10

var errOutsideSection = errors.New("snapshot: Write outside a section")

// NewWriter starts a snapshot stream on w, writing the header. Nothing
// is guaranteed to reach w before Finish.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{dst: w, buf: make([]byte, 0, bufSize), secs: make([]section, 0, 32), cur: -1}
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	le.PutUint32(hdr[8:], Version)
	sw.put(hdr[:])
	return sw
}

// sum folds the open section's buffered bytes into its checksum.
func (w *Writer) sum() {
	if w.cur >= 0 {
		w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.crcFrom:])
	}
	w.crcFrom = len(w.buf)
}

// flush hands the buffered bytes to the destination.
func (w *Writer) flush() {
	w.sum()
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
	w.crcFrom = 0
}

// put appends p to the stream; bytes inside a section join its
// checksum. An array at least a block long skips the buffer.
func (w *Writer) put(p []byte) {
	if len(w.buf)+len(p) > cap(w.buf) {
		w.flush()
		if len(p) >= cap(w.buf) {
			if w.cur >= 0 {
				w.crc = crc32.Update(w.crc, castagnoli, p)
			}
			if w.err == nil {
				_, w.err = w.dst.Write(p)
			}
			w.off += uint64(len(p))
			return
		}
	}
	w.buf = append(w.buf, p...)
	w.off += uint64(len(p))
}

// grow reserves the next n bytes of the open section (n at most
// bufSize) for the caller to fill, or returns nil once the Writer has
// failed.
func (w *Writer) grow(n int) []byte {
	if w.err != nil {
		return nil
	}
	if w.cur < 0 {
		w.err = errOutsideSection
		return nil
	}
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
	l := len(w.buf)
	w.buf = w.buf[:l+n]
	w.off += uint64(n)
	return w.buf[l:]
}

var zeros [8]byte

// align8 pads the stream to an 8-byte boundary.
func (w *Writer) align8() {
	if p := pad8(w.off); p > 0 {
		w.put(zeros[:p])
	}
}

// endSection records the open section's final length and checksum.
func (w *Writer) endSection() {
	if w.cur >= 0 {
		w.sum()
		s := &w.secs[w.cur]
		s.len = w.off - s.off
		s.crc = w.crc
		w.cur = -1
	}
}

// Begin closes the current section (if any) and opens a new one. Section
// names must be unique, non-empty, and at most 255 bytes.
func (w *Writer) Begin(name string) {
	w.endSection()
	if w.err == nil && (name == "" || len(name) > 255) {
		w.err = fmt.Errorf("snapshot: invalid section name %q", name)
		return
	}
	w.align8()
	w.secs = append(w.secs, section{name: name, off: w.off})
	w.cur = len(w.secs) - 1
	w.crc = 0
	w.crcFrom = len(w.buf)
}

// Write appends raw bytes to the open section (io.Writer).
func (w *Writer) Write(p []byte) (int, error) {
	if w.err == nil && w.cur < 0 {
		w.err = errOutsideSection
	}
	if w.err != nil {
		return 0, w.err
	}
	w.put(p)
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// Pad8 pads the open section so the next write starts 8-byte aligned
// relative to the file (sections themselves always start aligned).
func (w *Writer) Pad8() {
	if p := pad8(w.off); p > 0 {
		w.Write(zeros[:p])
	}
}

// U32 writes one little-endian uint32.
func (w *Writer) U32(v uint32) {
	if p := w.grow(4); p != nil {
		le.PutUint32(p, v)
	}
}

// U64 writes one little-endian uint64.
func (w *Writer) U64(v uint64) {
	if p := w.grow(8); p != nil {
		le.PutUint64(p, v)
	}
}

// I64 writes one little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// I32 writes one little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I32s writes a flat little-endian int32 array.
func (w *Writer) I32s(v []int32) {
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
func (w *Writer) I64s(v []int64) {
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
func (w *Writer) Err() error { return w.err }

// Finish closes the last section and writes the section table and
// trailer. The Writer must not be used afterwards.
func (w *Writer) Finish() error {
	w.endSection()
	w.align8()
	tableOff := w.off

	// Encode the table into one buffer so it can be CRC'd as a unit.
	size := 8
	for _, s := range w.secs {
		size += 24 + len(s.name) + int(pad8(24+uint64(len(s.name))))
	}
	table := le.AppendUint64(make([]byte, 0, size), uint64(len(w.secs)))
	for _, s := range w.secs {
		table = le.AppendUint64(table, s.off)
		table = le.AppendUint64(table, s.len)
		table = le.AppendUint32(table, s.crc)
		table = le.AppendUint32(table, uint32(len(s.name)))
		table = append(table, s.name...)
		table = append(table, zeros[:pad8(24+uint64(len(s.name)))]...)
	}
	w.put(table)

	var tr [trailerSize]byte
	le.PutUint64(tr[0:], tableOff)
	le.PutUint64(tr[8:], uint64(len(table)))
	le.PutUint32(tr[16:], crc32.Checksum(table, castagnoli))
	le.PutUint32(tr[20:], Version)
	copy(tr[24:], Magic)
	w.put(tr[:])
	w.flush()
	return w.err
}
