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

// TestRestoreFailureUnmapsSnapshot: snapshots whose checksums hold but
// whose banner column does not fit fail the restore — one with two
// banners for an empty host table with ErrCorrupt, and one written
// before the column existed (a host-sorted crawler/banner section) with
// an error naming the file and the missing section — and a failed
// restore releases the file's mapping instead of leaking it.
func TestRestoreFailureUnmapsSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		section string
		tables  [][]string
	}{
		{"overlong", BannerSection, [][]string{{"BIND 9.2.3", "BIND 8.2.4"}}},
		{"pre-column", "crawler/banner", [][]string{{"ns1.a.example"}, {"BIND 9.2.3"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.name+".snap")
			b := core.NewBuilder(0)
			b.FinishEpoch()
			if _, err := atomicio.WriteFile(path, func(w io.Writer) error {
				sw := snapshot.NewWriter(w)
				if err := b.WriteSections(sw); err != nil {
					return err
				}
				sw.Begin("crawler/meta")
				sw.I64(0)
				sw.I64(int64(len(tc.tables[len(tc.tables)-1])))
				sw.U64(0)
				sw.Pad8()
				sw.Begin(tc.section)
				for _, table := range tc.tables {
					if err := snapshot.WriteStringTable(sw, table); err != nil {
						return err
					}
				}
				return sw.Finish()
			}); err != nil {
				t.Fatal(err)
			}

			_, err := NewEngineFromSnapshot(nil, nil, Config{}, path)
			if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), BannerSection) {
				t.Fatalf("restore = %v, want ErrCorrupt naming %s and %s", err, path, BannerSection)
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
		})
	}
}
