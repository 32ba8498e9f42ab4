// Command dnssurvey runs the paper's full survey pipeline: generate the
// synthetic Internet, crawl the corpus, and regenerate every figure and
// table of the evaluation with paper-vs-measured comparisons.
//
// Usage:
//
//	dnssurvey [-names 20000] [-seed 1] [-workers 0] [-markdown] [-only "Figure 2"]
//	dnssurvey -follow [-names 20000] ...
//	dnssurvey -record crawl.qlog          # record the crawl's transport exchanges
//	dnssurvey -replay crawl.qlog          # re-run the survey offline from a recording
//	dnssurvey -memo-file crawl.qlog       # resume: ask only what the log cannot answer
//	dnssurvey -live                       # crawl over real UDP/TCP loopback sockets
//	dnssurvey -diff old.qlog new.qlog     # drift study: diff two recordings offline
//	dnssurvey -snapshot-out session.snap  # save the surveyed epoch store as a snapshot
//
// With -diff the survey is not crawled at all: the two recorded query
// logs (crawls of the same corpus at different times — use the same
// -names/-seed they were recorded with) are replayed through strict
// offline sources and the typed trust delta between them is printed —
// names added and removed, per-name TCB hosts gained and lost, min-cut
// drift, zone NS churn, and zombie dependencies (hosts still trusted
// whose delegation vanished). The exit status is 4 when drift was found,
// 0 when the recordings agree.
//
// The paper's full scale is -names 593160 (budget several minutes and a
// few GiB of memory).
//
// Which Internet the survey crawls is a transport-source composition:
// the default is the in-memory synthetic world; -live boots every
// nameserver as a real DNS server on loopback and crawls over actual
// sockets; -record captures every transport exchange into a byte-stable
// query log; -replay serves the entire crawl (fingerprint probes
// included) from such a log, touching no other transport, so the same
// analysis can run over recorded snapshots from different times.
// -record composes with both -live and -replay.
//
// -memo-file makes an interrupted survey resumable: the file is a query
// log replayed with fallthrough over the default or -live terminal, so
// every question it answered successfully is not asked again (failures
// are), and every answer is saved back to it, even after an aborted
// crawl. A missing file is a fresh start; a memo file is itself a
// recording that -replay serves strictly. It cannot be combined with
// -replay.
//
// With -follow the survey session stays open after the initial crawl:
// every line read from stdin is a whitespace-separated batch of names to
// add incrementally, and the delta each batch caused — new servers
// discovered, transport queries spent, headline-statistic drift — is
// printed after each commit. Adding names whose dependency structure is
// already walked costs zero transport queries.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dnstrust"
	"dnstrust/internal/daemon"
	"dnstrust/internal/report"
	"dnstrust/internal/transport"
)

func main() {
	sess := daemon.BindSession(flag.CommandLine, false)
	markdown := flag.Bool("markdown", false, "emit the comparison table as Markdown (for EXPERIMENTS.md)")
	snapshotOut := flag.String("snapshot-out", "", "save the surveyed epoch store as a binary snapshot here after a successful crawl (a dnsmonitord -snapshot boot restores it in load time)")
	only := flag.String("only", "", "run a single experiment by ID (e.g. \"Figure 7\")")
	follow := flag.Bool("follow", false, "keep the session open: read name batches from stdin, add them incrementally, print deltas")
	diff := flag.Bool("diff", false, "diff two recorded query logs (two positional args) instead of crawling")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	stats := flag.Bool("stats", false, "print crawl-engine statistics (transport queries, dedup counters)")
	flag.Parse()

	ctx := context.Background()
	opts := sess.Options()
	// logf is the progress channel -quiet silences.
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dnssurvey: -diff needs two query-log files: dnssurvey -diff old.qlog new.qlog")
			os.Exit(2)
		}
		os.Exit(runDiff(ctx, flag.Arg(0), flag.Arg(1), opts, *quiet, os.Stdout, os.Stderr))
	}
	// save persists the query logs and -snapshot-out. A closed session can
	// still be snapshotted: Close only ends the write side.
	save := func(m *dnstrust.Monitor, snapshotPath string) {
		if err := sess.SaveRecording(logf); err != nil {
			fmt.Fprintf(os.Stderr, "dnssurvey: %v\n", err)
		}
		if _, err := daemon.SaveSnapshot(m, snapshotPath, logf); err != nil {
			fmt.Fprintf(os.Stderr, "dnssurvey: %v\n", err)
		}
	}
	if !*quiet {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcrawled %d/%d names", done, total)
		}
	}

	start := time.Now()
	// The session owns the source chain: closing the monitor closes any
	// live listeners.
	m, err := sess.Open(ctx, opts, logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnssurvey: %v\n", err)
		os.Exit(1)
	}
	v, err := m.Add(ctx, m.World().Corpus...)
	if err != nil {
		m.Close()
		// Partial query logs survive an aborted crawl: everything answered
		// so far is worth keeping.
		save(m, "")
		fmt.Fprintf(os.Stderr, "dnssurvey: %v\n", err)
		os.Exit(1)
	}
	sv := v.Survey()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "\rcrawl complete: %d names, %d nameservers, %d failures (%.1fs)\n",
			len(sv.Names), sv.Graph.NumHosts(), len(sv.Failed), time.Since(start).Seconds())
	}
	if *stats {
		printStats(sv)
	}

	if *follow {
		followLoop(ctx, m, *quiet, *stats)
		if err := m.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dnssurvey: warning: session teardown: %v\n", err)
		}
		save(m, *snapshotOut)
		return
	}

	// One-shot mode: freeze the session, persist it, and regenerate the
	// paper.
	if err := m.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dnssurvey: warning: session teardown: %v\n", err)
	}
	save(m, *snapshotOut)

	var rows []dnstrust.Comparison
	if *only != "" {
		found := false
		for _, e := range dnstrust.Experiments() {
			if e.ID == *only {
				found = true
				fmt.Printf("\n===== %s: %s =====\n", e.ID, e.Title)
				rows, err = e.Run(ctx, v, os.Stdout)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dnssurvey: %s: %v\n", e.ID, err)
					os.Exit(1)
				}
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "dnssurvey: unknown experiment %q\n", *only)
			os.Exit(2)
		}
		if err := report.ComparisonTable("\nPaper vs measured", rows).Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		rows, err = dnstrust.RunAll(ctx, v, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnssurvey: %v\n", err)
			os.Exit(1)
		}
	}

	if *markdown {
		fmt.Println()
		fmt.Println(report.Markdown(rows))
	}

	bad := 0
	for _, c := range rows {
		if !c.Holds {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "dnssurvey: %d of %d shape claims did NOT hold\n", bad, len(rows))
		os.Exit(3)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "all %d shape claims hold (total %.1fs)\n", len(rows), time.Since(start).Seconds())
	}
}

// followLoop reads name batches from stdin and extends the survey
// incrementally, printing the delta each batch caused.
func followLoop(ctx context.Context, m *dnstrust.Monitor, quiet, stats bool) {
	if !quiet {
		fmt.Fprintln(os.Stderr, "follow mode: reading name batches from stdin (one whitespace-separated batch per line, EOF ends the session)")
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		batch := strings.Fields(sc.Text())
		if len(batch) == 0 {
			continue
		}
		prev := m.At()
		prevSum := prev.Summary()
		prevQueries := m.Queries()
		start := time.Now()
		v, err := m.Add(ctx, batch...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnssurvey: add failed: %v\n", err)
			continue
		}
		sum := v.Summary()
		sv := v.Survey()
		fmt.Printf("gen %d: +%d names (%d total), +%d servers, %d queries, %.2fs\n",
			v.Generation(),
			sum.Names-prevSum.Names, sum.Names,
			sum.Servers-prevSum.Servers,
			m.Queries()-prevQueries,
			time.Since(start).Seconds())
		fmt.Printf("        mean TCB %.1f -> %.1f; affected names %d -> %d\n",
			prevSum.TCB.Mean(), sum.TCB.Mean(), prevSum.AffectedNames, sum.AffectedNames)
		for _, n := range batch {
			if sz := sv.Graph.TCBSize(n); sz >= 0 {
				fmt.Printf("        %s: TCB %d\n", n, sz)
			} else if err, ok := sv.Failed[n]; ok {
				fmt.Printf("        %s: failed: %v\n", n, err)
			}
		}
		if stats {
			printStats(sv)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "dnssurvey: stdin: %v\n", err)
	}
}

// runDiff is the -diff mode: replay two recordings of the same corpus
// through strict offline sources and print the typed trust delta on
// stdout. It returns the process exit code: 0 when the recordings
// agree, 4 when drift was found, 1 on load or replay failure.
func runDiff(ctx context.Context, oldPath, newPath string, opts dnstrust.Options, quiet bool, stdout, stderr io.Writer) int {
	load := func(path string) (*dnstrust.QueryLog, int, error) {
		lg := transport.NewLog()
		n, err := lg.LoadFile(path)
		if err != nil {
			return nil, 0, err
		}
		if !quiet {
			fmt.Fprintf(stderr, "loaded %s: %d recorded questions\n", path, n)
		}
		return lg, n, nil
	}
	oldLog, oldN, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "dnssurvey: %s: %v\n", oldPath, err)
		return 1
	}
	newLog, newN, err := load(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "dnssurvey: %s: %v\n", newPath, err)
		return 1
	}
	// An empty recording is almost always an operational mistake — a
	// crawl that never ran, a truncated copy — and diffing against it
	// reports the entire other recording as drift. Say so explicitly,
	// so the wholesale churn below cannot read as genuine movement.
	for _, side := range []struct {
		path string
		n    int
	}{{oldPath, oldN}, {newPath, newN}} {
		if side.n == 0 {
			fmt.Fprintf(stdout, "empty generation: %s holds no recorded questions; every surveyed name diffs against nothing\n", side.path)
		}
	}
	start := time.Now()
	d, err := dnstrust.DiffLogs(ctx, oldLog, newLog, opts)
	if err != nil {
		fmt.Fprintf(stderr, "dnssurvey: diff: %v\n", err)
		return 1
	}
	// The diff only covers names that resolved in at least one
	// recording; corpus entries missing from both (e.g. -names larger
	// than what the logs were recorded with) are invisible to it and
	// must not be reported as "agreeing".
	if d.Compared < opts.Names {
		fmt.Fprintf(stderr,
			"dnssurvey: warning: only %d of %d corpus names resolved in either recording — were the logs recorded with the same -names/-seed?\n",
			d.Compared, opts.Names)
	}
	if d.Empty() {
		fmt.Fprintf(stdout, "no drift: %s and %s agree on all %d surveyed names (%.1fs)\n",
			oldPath, newPath, d.Compared, time.Since(start).Seconds())
		return 0
	}

	fmt.Fprintf(stdout, "drift %s -> %s:\n", oldPath, newPath)
	if len(d.NamesAdded) > 0 {
		fmt.Fprintf(stdout, "  names added:   %d %s\n", len(d.NamesAdded), preview(d.NamesAdded))
	}
	if len(d.NamesRemoved) > 0 {
		fmt.Fprintf(stdout, "  names removed: %d %s\n", len(d.NamesRemoved), preview(d.NamesRemoved))
	}
	if len(d.ZonesAdded) > 0 || len(d.ZonesRemoved) > 0 {
		fmt.Fprintf(stdout, "  zones: +%d -%d\n", len(d.ZonesAdded), len(d.ZonesRemoved))
	}
	if d.ChainsAdded > 0 || d.ChainsRemoved > 0 {
		fmt.Fprintf(stdout, "  delegation chains: +%d -%d\n", d.ChainsAdded, d.ChainsRemoved)
	}
	for _, zc := range d.ZoneChanges {
		fmt.Fprintf(stdout, "  zone %s: NS +%v -%v\n", zc.Apex, zc.NSAdded, zc.NSRemoved)
	}
	for _, c := range d.Changed {
		fmt.Fprintf(stdout, "  %s: TCB %d -> %d (+%d/-%d hosts), min-cut %d -> %d (safe %d -> %d)%s\n",
			c.Name, c.OldTCB, c.NewTCB, len(c.TCBAdded), len(c.TCBRemoved),
			c.OldCut, c.NewCut, c.OldSafe, c.NewSafe, chainNote(c))
	}
	for _, z := range d.Zombies {
		fmt.Fprintf(stdout, "  ZOMBIE %s (%s): still in %d names' TCB", z.Host, z.Kind, z.Names)
		if len(z.Zones) > 0 {
			fmt.Fprintf(stdout, "; dropped by %v", z.Zones)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%d names changed, %d zombies (%.1fs)\n", len(d.Changed), len(d.Zombies), time.Since(start).Seconds())
	return 4
}

func chainNote(c dnstrust.NameChange) string {
	if c.ChainChanged {
		return " [delegation chain re-routed]"
	}
	return ""
}

// preview renders the first few entries of a long name list.
func preview(names []string) string {
	const show = 3
	if len(names) <= show {
		return fmt.Sprintf("%v", names)
	}
	return fmt.Sprintf("%v...", names[:show])
}

func printStats(sv *dnstrust.Survey) {
	st := sv.Stats
	fmt.Fprintf(os.Stderr,
		"engine: gen %d, %d workers, %d transport queries, %d query-memo hits, %d shared walks, %d inline fallbacks\n",
		st.Generation, st.Workers, st.Walker.Queries, st.Walker.MemoHits, st.Walker.SharedWalks, st.Walker.InlineWalks)
	fmt.Fprintf(os.Stderr,
		"phases: walk+assemble %.2fs (streamed), closure build %.3fs; %d failures retried\n",
		st.WalkTime.Seconds(), st.BuildTime.Seconds(), st.FailuresRetried)
}
