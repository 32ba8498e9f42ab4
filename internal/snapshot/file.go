package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"
)

// nativeLE reports whether the host is little-endian; when true, array
// sections are viewed in place with zero copies.
var nativeLE = binary.NativeEndian.Uint16([]byte{0x01, 0x02}) == binary.LittleEndian.Uint16([]byte{0x01, 0x02})

// File is an opened, fully verified snapshot. Section accessors return
// views into the backing data — when the file was mmapped, directly into
// the mapping — so the File must stay alive (and un-Closed) for as long
// as any structure built over those views is in use. Long-lived loaders
// (a restarted Monitor) simply keep the File for the life of the
// process.
type File struct {
	data  []byte
	secs  map[string][]byte
	unmap func() error
}

// Open opens and verifies a snapshot file. On platforms that support it
// the file is memory-mapped read-only — the terminal the hot arrays load
// through with zero copies — otherwise (and for unseekable inputs) it
// falls back to reading the file into memory, behaving identically.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if data, unmap, ok := mmap(f, st.Size()); ok {
		sf, err := verify(data, unmap)
		if err != nil {
			unmap()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return sf, nil
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	sf, err := verify(data, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sf, nil
}

// Read loads a snapshot from any io.Reader — the pure-portability path
// (a network stream, a test buffer). The whole input is read into
// memory and verified exactly like an opened file. A reader that states
// its length (Len() int, as *bytes.Buffer and *bytes.Reader do) is read
// into one buffer of that size; any other reader grows its buffer as it
// goes, so an untrusted length never sizes an allocation.
func Read(r io.Reader) (*File, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return verify(data, nil)
}

// readAll reads r to EOF, sizing the buffer once when r states its
// length.
func readAll(r io.Reader) ([]byte, error) {
	lr, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	data := make([]byte, lr.Len())
	n, err := io.ReadFull(r, data)
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return data[:n], nil
	case err != nil:
		return nil, err
	}
	// The stated length was a lower bound: drain whatever follows.
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return append(data, rest...), nil
}

// verify validates header, trailer, section table, and every section
// checksum, and indexes the sections. All failure modes are typed; see
// the package errors.
func verify(data []byte, unmap func() error) (*File, error) {
	if len(data) < headerSize {
		n := min(len(data), len(Magic))
		if n > 0 && string(data[:n]) == Magic[:n] {
			return nil, ErrTruncated
		}
		return nil, ErrFormat
	}
	if string(data[:8]) != Magic {
		return nil, ErrFormat
	}
	if v := le.Uint32(data[8:]); v > Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	if len(data) < headerSize+trailerSize {
		return nil, ErrTruncated
	}
	tr := data[len(data)-trailerSize:]
	if string(tr[24:32]) != Magic {
		// The leading magic matched, so this is our file with its end cut
		// off (or overwritten) — the signature of an interrupted write.
		return nil, ErrTruncated
	}
	if v := le.Uint32(tr[20:]); v > Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	tableOff, tableLen := le.Uint64(tr[0:]), le.Uint64(tr[8:])
	bodyEnd := uint64(len(data) - trailerSize)
	if tableOff < headerSize || tableOff > bodyEnd || tableLen > bodyEnd-tableOff {
		return nil, ErrTruncated
	}
	table := data[tableOff : tableOff+tableLen]
	if crc32.Checksum(table, castagnoli) != le.Uint32(tr[16:]) {
		return nil, fmt.Errorf("%w: section table", ErrChecksum)
	}
	secs, err := parseTable(table, tableOff)
	if err != nil {
		return nil, err
	}
	f := &File{data: data, secs: make(map[string][]byte, len(secs)), unmap: unmap}
	for _, s := range secs {
		if _, dup := f.secs[s.name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, s.name)
		}
		payload := data[s.off : s.off+s.len]
		if crc32.Checksum(payload, castagnoli) != s.crc {
			return nil, fmt.Errorf("%w: section %q", ErrChecksum, s.name)
		}
		f.secs[s.name] = payload
	}
	return f, nil
}

// Section returns the named section's payload, or nil when absent. The
// returned slice aliases the file's backing data; treat it as read-only.
func (f *File) Section(name string) []byte { return f.secs[name] }

// Size reports the snapshot's total size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Close releases the mapping, when one exists. Every view previously
// returned by Section — and every structure aliasing one — becomes
// invalid. Loaders that hand out long-lived views keep the File open for
// the life of the process instead.
func (f *File) Close() error {
	f.secs = nil
	f.data = nil
	if f.unmap != nil {
		u := f.unmap
		f.unmap = nil
		return u()
	}
	return nil
}

// I32View reinterprets a byte slice as little-endian int32s. On
// little-endian hosts this is a zero-copy view (the mmap fast path); a
// big-endian host pays one conversion copy. len(b) must be a multiple
// of 4.
func I32View(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if nativeLE {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(le.Uint32(b[4*i:]))
	}
	return out
}

// I64View reinterprets a byte slice as little-endian int64s; zero-copy
// on little-endian hosts. len(b) must be a multiple of 8, and b must be
// 8-byte aligned (section starts and Pad8 boundaries are).
func I64View(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if nativeLE {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(le.Uint64(b[8*i:]))
	}
	return out
}
