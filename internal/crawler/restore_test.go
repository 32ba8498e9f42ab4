package crawler

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dnstrust/internal/atomicio"
	"dnstrust/internal/core"
	"dnstrust/internal/snapshot"
)

// TestRestoreFailureUnmapsSnapshot: a snapshot whose checksums hold but
// whose crawler/banner section pairs 2 hosts with 1 banner fails the
// restore with ErrCorrupt, and the failed restore releases the file's
// mapping instead of leaking it.
func TestRestoreFailureUnmapsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mismatch.snap")
	b := core.NewBuilder(0)
	b.FinishEpoch()
	if _, err := atomicio.WriteFile(path, func(w io.Writer) error {
		sw := snapshot.NewWriter(w)
		if err := b.WriteSections(sw); err != nil {
			return err
		}
		sw.Begin("crawler/meta")
		sw.I64(0)
		sw.I64(0)
		sw.U64(0)
		sw.Pad8()
		sw.Begin("crawler/banner")
		if err := snapshot.WriteStringTable(sw, []string{"ns1.a.example", "ns2.a.example"}); err != nil {
			return err
		}
		if err := snapshot.WriteStringTable(sw, []string{"BIND 9.2.3"}); err != nil {
			return err
		}
		return sw.Finish()
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := NewEngineFromSnapshot(nil, nil, Config{}, path); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("restore of 2 hosts with 1 banner = %v, want ErrCorrupt", err)
	}
	if runtime.GOOS != "linux" {
		return
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip(err)
	}
	if strings.Contains(string(maps), path) {
		t.Errorf("failed restore left %s mapped", path)
	}
}
