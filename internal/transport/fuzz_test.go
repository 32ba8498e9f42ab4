package transport_test

import (
	"bytes"
	"context"
	"testing"

	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

// recordedCrawl returns the saved query log of a 40-name crawl,
// fingerprint probes included.
func recordedCrawl(f *testing.F) []byte {
	f.Helper()
	world, err := topology.Generate(topology.GenParams{Seed: 3, Names: 40})
	if err != nil {
		f.Fatal(err)
	}
	log := transport.NewLog()
	src := transport.Chain(world.Registry.Source(), transport.Record(log))
	r, err := world.Registry.Resolver(src)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := crawler.Run(context.Background(), r, world.Corpus, world.Registry.ProbeFunc(src), crawler.Config{Workers: 2}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := log.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// oldMemoHeader heads the retired walker-memo format.
var oldMemoHeader = []byte("DNSQMEMO1\n")

// FuzzLogLoad holds the one decoder of answered questions to two
// properties: no input panics it, and any input it loads saves to bytes
// that load and save back identically (Save∘Load is idempotent). The
// retired walker-memo format must be rejected, never half-read.
func FuzzLogLoad(f *testing.F) {
	rec := recordedCrawl(f)
	f.Add(rec)
	for _, cut := range []int{0, 4, 9, 10, 30, len(rec) / 3, len(rec) / 2, len(rec) - 1} {
		f.Add(rec[:cut])
	}
	f.Add(append(append([]byte(nil), oldMemoHeader...), rec[9:]...))

	save := func(t *testing.T, l *transport.Log) []byte {
		var buf bytes.Buffer
		if _, err := l.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := transport.NewLog()
		if _, err := l.Load(bytes.NewReader(data)); err != nil {
			return
		}
		if bytes.HasPrefix(data, oldMemoHeader) {
			t.Fatal("a walker-memo file loaded as a query log")
		}
		once := save(t, l)
		again := transport.NewLog()
		if _, err := again.Load(bytes.NewReader(once)); err != nil {
			t.Fatalf("a saved log does not load: %v", err)
		}
		if twice := save(t, again); !bytes.Equal(once, twice) {
			t.Fatal("Save∘Load is not idempotent")
		}
	})
}
