package snapshot

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// WriteStringTable emits a string table into the open section: count,
// cumulative end offsets, then the concatenated bytes. SectionReader
// loads it back as zero-copy views into the section.
func WriteStringTable(w *Writer, strs []string) error {
	w.U64(uint64(len(strs)))
	// The offsets go out as one array, filled a block at a time.
	var end uint64
	for rest := strs; len(rest) > 0; {
		chunk := rest[:min(len(rest), bufSize/4)]
		rest = rest[len(chunk):]
		p := w.grow(4 * len(chunk))
		if p == nil {
			return w.Err()
		}
		for i, s := range chunk {
			end += uint64(len(s))
			if end > math.MaxUint32 {
				return errors.New("snapshot: string table exceeds 4 GiB")
			}
			le.PutUint32(p[4*i:], uint32(end))
		}
	}
	w.Pad8()
	if w.Err() == nil {
		for _, s := range strs {
			// The string's own bytes, without a conversion copy: put
			// buffers them or hands them to a destination that may
			// neither modify nor retain them.
			w.put(unsafe.Slice(unsafe.StringData(s), len(s)))
		}
	}
	w.Pad8()
	return w.Err()
}

// SectionReader is a bounds-checked cursor over one section's payload
// with a sticky error, mirroring the Writer's assignment-shaped style.
// All failure modes wrap ErrCorrupt: the section's checksum passed, but
// its contents do not decode consistently.
type SectionReader struct {
	sec string
	b   []byte
	off int
	err error
}

// NewSectionReader positions a cursor at the start of the named section;
// a missing section is an immediate (sticky) error.
func NewSectionReader(f *File, sec string) *SectionReader {
	b := f.Section(sec)
	d := &SectionReader{sec: sec, b: b}
	if b == nil {
		d.err = fmt.Errorf("%w: section %q missing", ErrCorrupt, sec)
	}
	return d
}

// Err reports the sticky decode error, if any.
func (d *SectionReader) Err() error { return d.err }

// Fail records a decode failure with section and offset context; the
// first failure sticks.
func (d *SectionReader) Fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s: %s at byte %d", ErrCorrupt, d.sec, msg, d.off)
	}
}

// Take consumes the next n bytes and returns them as a capped view.
func (d *SectionReader) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.Fail("section too short")
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	d.off += n
	return p
}

// Pad8 skips to the next 8-byte boundary relative to the section start
// (sections start 8-aligned in the file, so this matches Writer.Pad8).
func (d *SectionReader) Pad8() { d.Take(int(pad8(uint64(d.off)))) }

// U32 reads one little-endian uint32.
func (d *SectionReader) U32() uint32 {
	p := d.Take(4)
	if p == nil {
		return 0
	}
	return le.Uint32(p)
}

// U64 reads one little-endian uint64.
func (d *SectionReader) U64() uint64 {
	p := d.Take(8)
	if p == nil {
		return 0
	}
	return le.Uint64(p)
}

// I64 reads one little-endian int64.
func (d *SectionReader) I64() int64 { return int64(d.U64()) }

// Int reads a u64 scalar (a dimension, not an in-section element count)
// that must fit comfortably in an int.
func (d *SectionReader) Int() int {
	v := d.U64()
	if d.err == nil && v > math.MaxInt32 {
		d.Fail("dimension out of range")
		return 0
	}
	return int(v)
}

// Count reads a u64 element count and sanity-checks it against the
// remaining section bytes at elemSize bytes per element, guarding the
// allocations sized from it.
func (d *SectionReader) Count(elemSize int) int {
	v := d.U64()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b))/uint64(elemSize) {
		d.Fail("count exceeds section size")
		return 0
	}
	return int(v)
}

// I32s returns the next n int32s as a (zero-copy on little-endian
// hosts) view.
func (d *SectionReader) I32s(n int) []int32 {
	return I32View(d.Take(4 * n))
}

// I64s returns the next n int64s as a view; the cursor must be
// 8-aligned.
func (d *SectionReader) I64s(n int) []int64 {
	return I64View(d.Take(8 * n))
}

// Strings decodes a table written by WriteStringTable; the returned
// strings are zero-copy views into the section (and so into the mapping,
// when the file is mmapped — they are valid as long as the File is).
func (d *SectionReader) Strings() []string {
	n := d.Count(4)
	ends := d.Take(4 * n)
	d.Pad8()
	if d.err != nil {
		return nil
	}
	var total uint32
	if n > 0 {
		total = le.Uint32(ends[4*(n-1):])
	}
	blob := d.Take(int(total))
	d.Pad8()
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	var start uint32
	for i := range out {
		end := le.Uint32(ends[4*i:])
		if end < start || end > total {
			d.Fail("string offsets not monotonic")
			return nil
		}
		if end > start {
			out[i] = unsafe.String(&blob[start], int(end-start))
		}
		start = end
	}
	return out
}
