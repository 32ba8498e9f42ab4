package dnswire

import (
	"strings"
)

// maxWireName is the RFC 1035 §3.1 limit on encoded name length.
const maxWireName = 255

// Compressor tracks name offsets while packing a message so later names can
// be encoded as compression pointers (RFC 1035 §4.1.4). The zero value
// disables compression; use NewCompressor to enable it.
type Compressor struct {
	offsets map[string]int
}

// NewCompressor returns a Compressor that emits compression pointers.
func NewCompressor() *Compressor {
	return &Compressor{offsets: make(map[string]int)}
}

// AppendName appends the wire encoding of the canonical name to buf,
// compressing against previously packed names when c is non-nil and was
// created by NewCompressor. The name must already be canonical (lower-case,
// no trailing dot); the root is "". Within a label, "\." and "\\" stand
// for the octets '.' and '\', as UnpackName writes them.
func AppendName(buf []byte, name string, c *Compressor) ([]byte, error) {
	if name == "" {
		return append(buf, 0), nil
	}
	if wireNameLen(name) > maxWireName {
		return nil, ErrNameTooLong
	}
	rest := name
	for rest != "" {
		// Compression pointers can only address the first 16 KiB - 1.
		if c != nil && c.offsets != nil {
			if off, ok := c.offsets[rest]; ok && off < 0x3FFF {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			if len(buf) < 0x3FFF {
				c.offsets[rest] = len(buf)
			}
		}
		start := len(buf)
		buf = append(buf, 0)
		i := strings.IndexByte(rest, '.')
		if j := strings.IndexByte(rest, '\\'); j >= 0 && (i < 0 || j < i) {
			buf = append(buf, rest[:j]...)
			for i = j; i < len(rest) && rest[i] != '.'; i++ {
				if rest[i] == '\\' {
					if i++; i == len(rest) {
						return nil, ErrBadEscape
					}
				}
				buf = append(buf, rest[i])
			}
		} else {
			if i < 0 {
				i = len(rest)
			}
			buf = append(buf, rest[:i]...)
		}
		if i < len(rest) {
			rest = rest[i+1:]
		} else {
			rest = ""
		}
		n := len(buf) - start - 1
		if n == 0 {
			return nil, ErrShortMessage // empty label: malformed canonical name
		}
		if n > 63 {
			return nil, ErrLabelTooLong
		}
		buf[start] = byte(n)
	}
	return append(buf, 0), nil
}

// wireNameLen is the encoded length of a name, each escape pair counting
// as the one octet it stands for.
func wireNameLen(name string) int {
	if name == "" {
		return 1
	}
	n := len(name) + 2
	for i := strings.IndexByte(name, '\\'); i >= 0 && i < len(name); i++ {
		if name[i] == '\\' {
			n--
			i++
		}
	}
	return n
}

// UnpackName decodes a (possibly compressed) domain name starting at off in
// msg. It returns the canonical name and the offset just past the name's
// representation at its original location (pointers are followed for
// content but do not advance the caller's offset past the pointer itself).
//
// A label octet '.' or '\' is written escaped, as "\." or "\\", so every
// unescaped dot in the result is a label boundary: the label "www.fbi"
// under gov reads as www\.fbi.gov, never as www.fbi.gov. Such labels are
// legal on the wire; SOA mailboxes (first\.last.example.com) carry them.
//
// Decompression is loop-safe: each pointer must target an offset strictly
// below the position where the pointer occurred, which both matches how
// legitimate encoders emit pointers and bounds the walk.
func UnpackName(msg []byte, off int) (name string, next int, err error) {
	var sb strings.Builder
	ptrBudget := 0 // offset ceiling once we have followed a pointer; 0 = none yet
	next = -1
	length := 0
	for iter := 0; ; iter++ {
		if iter > 255 { // generous upper bound; a valid name has <= 127 labels
			return "", 0, ErrCompressionLoop
		}
		if off >= len(msg) {
			return "", 0, ErrShortMessage
		}
		b := int(msg[off])
		switch b & 0xC0 {
		case 0x00: // literal label
			if b == 0 {
				if next < 0 {
					next = off + 1
				}
				return sb.String(), next, nil
			}
			if off+1+b > len(msg) {
				return "", 0, ErrShortMessage
			}
			length += b + 1
			if length+1 > maxWireName {
				return "", 0, ErrNameTooLong
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			for _, c := range msg[off+1 : off+1+b] {
				if c == '.' || c == '\\' {
					sb.WriteByte('\\')
				}
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				sb.WriteByte(c)
			}
			off += 1 + b
		case 0xC0: // compression pointer
			if off+2 > len(msg) {
				return "", 0, ErrShortMessage
			}
			target := (b&0x3F)<<8 | int(msg[off+1])
			if next < 0 {
				next = off + 2
			}
			// Pointers must strictly decrease to guarantee termination.
			limit := off
			if ptrBudget > 0 && ptrBudget < limit {
				limit = ptrBudget
			}
			if target >= limit {
				if target >= len(msg) {
					return "", 0, ErrBadPointer
				}
				return "", 0, ErrCompressionLoop
			}
			ptrBudget = target
			off = target
		default:
			return "", 0, ErrBadLabelType
		}
	}
}
