package daemon_test

import (
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
