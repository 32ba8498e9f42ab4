package dnswire

import "errors"

// Decoding and encoding errors. Unpack functions return these wrapped with
// positional context via fmt.Errorf("...: %w", err) where useful.
var (
	// ErrShortMessage indicates the buffer ended before a complete field.
	ErrShortMessage = errors.New("dnswire: message too short")
	// ErrNameTooLong indicates a domain name exceeding 255 wire octets.
	ErrNameTooLong = errors.New("dnswire: domain name exceeds 255 octets")
	// ErrLabelTooLong indicates a label exceeding 63 octets.
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	// ErrCompressionLoop indicates a compression pointer cycle or a pointer
	// that does not strictly decrease, which malicious messages use to make
	// naive decoders spin.
	ErrCompressionLoop = errors.New("dnswire: compression pointer loop")
	// ErrBadPointer indicates a compression pointer outside the message.
	ErrBadPointer = errors.New("dnswire: compression pointer out of range")
	// ErrBadLabelType indicates a label type other than literal (00) or
	// pointer (11); the obsolete 01/10 types are rejected.
	ErrBadLabelType = errors.New("dnswire: unsupported label type")
	// ErrBadEscape indicates a name to pack that ends in a lone '\'.
	ErrBadEscape = errors.New("dnswire: name ends in a lone backslash")
	// ErrTrailingBytes indicates bytes remaining after the counted records.
	ErrTrailingBytes = errors.New("dnswire: trailing bytes after message")
	// ErrBadRDLength indicates an RDLENGTH inconsistent with its RDATA.
	ErrBadRDLength = errors.New("dnswire: RDLENGTH mismatch")
	// ErrMessageTooLarge indicates a message that cannot fit the transport.
	ErrMessageTooLarge = errors.New("dnswire: message exceeds 64 KiB")
	// ErrTooManyRecords indicates section counts exceeding sane bounds.
	ErrTooManyRecords = errors.New("dnswire: implausible section count")
	// ErrBadStringLength indicates a character-string that overruns RDATA.
	ErrBadStringLength = errors.New("dnswire: character-string overruns data")
)
