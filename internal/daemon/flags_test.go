package daemon_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"dnstrust/internal/daemon"
	"dnstrust/internal/transport"
)

// The flag sets the four commands registered before the session and
// policy blocks moved into the binders: name → the default `-h` prints
// ("" where flag prints none, i.e. a zero default).
var parentFlags = map[string]map[string]string{
	"dnsmonitord": {"addr": `":8053"`, "flag-only": "", "live": "", "max-tcb": "100", "memo-file": "", "names": "20000",
		"narrow-cut": "1", "record": "", "replay": "", "retain": "8", "seed": "1", "shard-name": "", "snapshot": "",
		"verdict-ttl": "1m0s", "workers": ""},
	"dnsfleetd": {"addr": `":8063"`, "attempts": "3", "backoff": "200ms", "interval": "30s", "quorum": "", "retain": "8",
		"shards": "", "snapshot": "", "timeout": "10s"},
	"dnstrustd": {"flag-only": "", "listen": `"127.0.0.1:5353"`, "live": "", "max-tcb": "100", "memo-file": "",
		"names": "20000", "narrow-cut": "1", "queue": "1024", "record": "", "replay": "", "seed": "1", "snapshot": "",
		"stats-every": "1m0s", "verdict-ttl": "1m0s", "workers": ""},
	"dnssurvey": {"diff": "", "follow": "", "live": "", "markdown": "", "memo-file": "", "names": "20000", "only": "",
		"quiet": "", "record": "", "replay": "", "seed": "1", "snapshot-out": "", "stats": "", "workers": ""},
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultNote = regexp.MustCompile(`\(default (.*)\)$`)
)

// TestCommandFlagsMatchParent builds the four commands and reads their
// -h output: every command keeps exactly the flags, with the defaults,
// it had when each registered its own copy of the blocks.
func TestCommandFlagsMatchParent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four commands")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/dnsmonitord", "./cmd/dnsfleetd", "./cmd/dnstrustd", "./cmd/dnssurvey")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, want := range parentFlags {
		out, _ := exec.Command(filepath.Join(bin, name), "-h").CombinedOutput() // -h exits 0 or 2 by Go version
		got := map[string]string{}
		last := ""
		for _, line := range strings.Split(string(out), "\n") {
			if m := flagLine.FindStringSubmatch(line); m != nil {
				last = m[1]
				got[last] = ""
			} else if m := defaultNote.FindStringSubmatch(line); m != nil && last != "" {
				got[last] = m[1]
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s flags\n got %v\nwant %v", name, got, want)
		}
	}
}

// openWith parses args through the session binder and opens the
// session, returning what the start-up steps logged.
func openWith(t *testing.T, args ...string) (*daemon.Session, []string, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sess := daemon.BindSession(fs, false)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var logged []string
	logf := func(format string, a ...any) { logged = append(logged, fmt.Sprintf(format, a...)) }
	m, err := sess.Open(context.Background(), sess.Options(), logf)
	if err != nil {
		return sess, logged, err
	}
	t.Cleanup(func() { m.Close() })
	if _, err := m.Add(context.Background(), m.World().Corpus...); err != nil {
		t.Fatal(err)
	}
	if err := sess.SaveRecording(logf); err != nil {
		t.Fatal(err)
	}
	return sess, logged, nil
}

// TestSessionReplay: a recording made through the binder replays through
// it; -live beside -replay is ignored with a log line and boots no
// server; a missing recording fails the open rather than starting fresh.
func TestSessionReplay(t *testing.T) {
	qlog := filepath.Join(t.TempDir(), "crawl.qlog")
	if _, _, err := openWith(t, "-names", "40", "-seed", "3", "-record", qlog); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(qlog); err != nil || fi.Size() == 0 {
		t.Fatalf("-record left no recording: %v", err)
	}

	sess, logged, err := openWith(t, "-names", "40", "-seed", "3", "-replay", qlog, "-live")
	if err != nil {
		t.Fatalf("strict replay of the session's own recording: %v", err)
	}
	all := strings.Join(logged, "\n")
	if !strings.Contains(all, "-live ignored") || strings.Contains(all, "booted") {
		t.Errorf("-live with -replay must log that it is ignored and boot nothing; logged:\n%s", all)
	}
	if sess.Upstream == nil {
		t.Error("replay session has no upstream for a resolver to share")
	}

	_, _, err = openWith(t, "-names", "40", "-replay", filepath.Join(t.TempDir(), "absent.qlog"))
	if err == nil || !strings.Contains(err.Error(), "absent.qlog") {
		t.Errorf("opening a missing -replay file = %v, want an error naming it", err)
	}
}

// TestSessionMemoLog: -memo-file is a resumable query log. A missing
// file is a fresh start and the crawl's answers are saved to it; a second
// session resumes from it, asks nothing new and saves the same bytes;
// and the file is a recording that -replay serves strictly.
func TestSessionMemoLog(t *testing.T) {
	memo := filepath.Join(t.TempDir(), "crawl.qlog")
	args := []string{"-names", "40", "-seed", "3", "-memo-file", memo}
	if _, _, err := openWith(t, args...); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(memo)
	if err != nil || len(first) == 0 {
		t.Fatalf("-memo-file left no log: %v", err)
	}
	_, logged, err := openWith(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if all := strings.Join(logged, "\n"); !strings.Contains(all, "resuming from "+memo) || strings.Contains(all, ": 0 recorded questions") {
		t.Errorf("second session did not resume from the saved log; logged:\n%s", all)
	}
	if second, err := os.ReadFile(memo); err != nil || !bytes.Equal(first, second) {
		t.Errorf("a resumed session changed the memo file (%v)", err)
	}
	if _, _, err := openWith(t, "-names", "40", "-seed", "3", "-replay", memo); err != nil {
		t.Errorf("strict replay of a memo file: %v", err)
	}
	if _, _, err := openWith(t, "-names", "40", "-memo-file", memo, "-replay", memo); err == nil ||
		!strings.Contains(err.Error(), "-memo-file") || !strings.Contains(err.Error(), "-replay") {
		t.Errorf("-memo-file with -replay = %v, want an error naming both flags", err)
	}
}

// TestSessionMemoLogRejectsGarbage: a memo file that is not a whole
// query log fails the open with an error naming it, instead of silently
// resuming from nothing.
func TestSessionMemoLogRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	var rec bytes.Buffer
	lg := transport.NewLog()
	if _, err := lg.Save(&rec); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"garbage.qlog":   []byte("not a query log at all"),
		"truncated.qlog": append(rec.Bytes(), 0, 1),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openWith(t, "-names", "40", "-memo-file", path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("opening memo file %s = %v, want an error naming it", name, err)
		}
	}
}

// TestSessionMemoLogSaveFailureKeepsCrawl: an unwritable -memo-file path
// loses the resume state, never the completed crawl — Crawl returns the
// committed generation and logs the failed save.
func TestSessionMemoLogSaveFailureKeepsCrawl(t *testing.T) {
	memo := filepath.Join(t.TempDir(), "no", "such", "dir", "crawl.qlog")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sess := daemon.BindSession(fs, false)
	if err := fs.Parse([]string{"-names", "50", "-memo-file", memo}); err != nil {
		t.Fatal(err)
	}
	var logged []string
	logf := func(format string, a ...any) { logged = append(logged, fmt.Sprintf(format, a...)) }
	ctx := context.Background()
	m, err := sess.Open(ctx, sess.Options(), logf)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, err := sess.Crawl(ctx, m, logf)
	if err != nil {
		t.Fatalf("a crawl must survive a memo-file save failure, got %v", err)
	}
	if got, want := v.NumNames()+len(v.Survey().Failed), len(m.World().Corpus); got != want {
		t.Errorf("crawled %d of %d names", got, want)
	}
	if all := strings.Join(logged, "\n"); !strings.Contains(all, "memo file not saved") || !strings.Contains(all, memo) {
		t.Errorf("the lost resume state was not reported; logged:\n%s", all)
	}
}

// TestServeDrainsOnSIGTERM: Serve answers requests, and on SIGTERM stops
// through the one shutdown path — drain, then the close function — with
// exit status 0, or 1 when closing failed.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	for _, closeErr := range []error{nil, fmt.Errorf("snapshot save failed")} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) { daemon.WriteJSON(w, 200, "pong") })
		closed := false
		status := make(chan int, 1)
		go func() {
			status <- daemon.Serve(ln, mux, func() error { closed = true; return closeErr })
		}()
		// A served request proves Serve's signal handler is installed.
		resp, err := http.Get("http://" + ln.Addr().String() + "/ping")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		want := 0
		if closeErr != nil {
			want = 1
		}
		if got := <-status; got != want || !closed {
			t.Errorf("Serve returned %d (closed=%v) with close error %v, want %d", got, closed, closeErr, want)
		}
		if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
			t.Error("listener still accepting after shutdown")
		}
	}
}
