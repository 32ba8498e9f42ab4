// Package atomicio implements the write-to-temp-then-rename idiom shared
// by every on-disk artifact that must never be observable half-written:
// query logs and epoch-store snapshots. The content is produced
// into a temporary sibling of the target, synced, and renamed into place
// — a crash or SIGTERM at any point leaves either the previous complete
// file or no file, never a loadable partial one.
package atomicio

import (
	"fmt"
	"io"
	"os"
)

// WriteFile atomically replaces path with the bytes write produces. The
// data is written to path+".tmp" in the same directory (so the final
// rename cannot cross filesystems), fsynced, and renamed over path only
// after write returned nil and the file is durably on disk. On any
// failure the temporary file is removed and the previous content of path
// is untouched. It returns the number of bytes written.
func WriteFile(path string, write func(io.Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("atomicio: %w", err)
	}
	cw := &countingWriter{w: f}
	if err := write(cw); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("atomicio: %s: %w", tmp, err)
	}
	// Sync before rename: otherwise a crash shortly after could replace
	// the old file with a new one whose blocks never hit the disk.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("atomicio: %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("atomicio: %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("atomicio: %w", err)
	}
	return cw.n, nil
}

// countingWriter tracks how many bytes passed through.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
