package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"dnstrust"
	"dnstrust/internal/dnswire"
)

// roundCorpus is what the analyst's monitor and the fleet's shards hold
// before the rounds: the whole boot crawl, or the first plan.side names
// of it on a workload whose subject is the serving path.
func (r *runner) roundCorpus() []string {
	if s := r.rc.plan.side; s > 0 && s < len(r.crawled) {
		return r.crawled[:s]
	}
	return r.crawled
}

// takeBatch returns the names of round i, new to the analyst's monitor
// and to the fleet: from the tail of the crawled names a side corpus
// leaves out, or, when the rounds work on the whole crawl, from the tail
// of the held-out list (churn consumes its head).
func (r *runner) takeBatch(i int) []string {
	pool := r.held
	if n := len(r.roundCorpus()); n < len(r.crawled) {
		pool = r.crawled[n:]
	}
	end := len(pool) - i*r.rc.batch
	return pool[end-r.rc.batch : end]
}

// analystState is the operator's read path between its cold start and
// its report.
type analystState struct {
	mon  *dnstrust.Monitor
	prev *dnstrust.View

	colds, commits, warm, summaries, bottlenecks, betweens, changed []float64
}

// analyst opens the operator's read path, listener idle: the
// whole-survey analyses cold on a fresh view. On the survey workload that
// is the serving stack's own monitor, once; on the serve_* workloads a
// side monitor over the first plan.side crawled names — the contract's
// "every metric on every workload" then costs them five seconds, not
// twelve — and the cold pass is cheap enough to repeat (extraCold).
func (r *runner) analyst(ctx context.Context) error {
	a := &analystState{mon: r.st.mon}
	r.an = a
	if len(r.roundCorpus()) < len(r.crawled) {
		m, err := r.sideMonitor(ctx)
		if err != nil {
			return err
		}
		r.mons = append(r.mons, m)
		a.mon = m
	}
	a.prev = a.mon.At()
	r.res.info["round_corpus"] = a.prev.NumNames()
	return r.analyzeCold(ctx, a.prev)
}

// sideMonitor is a fresh monitor that has crawled the side corpus. Its
// crawl is one sample of crawl_names_per_s: like the cold analysis, the
// crawl belongs to the analyst's path, and on a side corpus it is cheap
// enough to take three times.
func (r *runner) sideMonitor(ctx context.Context) (*dnstrust.Monitor, error) {
	m, err := dnstrust.OpenWorld(ctx, r.world, dnstrust.Options{Workers: runtime.NumCPU(), Retain: r.rc.plan.retain})
	if err != nil {
		return nil, fmt.Errorf("analyst: %w", err)
	}
	corpus := r.roundCorpus()
	settle()
	start := time.Now()
	v, err := m.Add(ctx, corpus...)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("analyst: side crawl: %w", err), m.Close())
	}
	r.crawlRates = append(r.crawlRates, float64(len(corpus))/time.Since(start).Seconds())
	r.res.ops.check(v.NumNames()+len(v.Survey().Failed) == len(corpus), "analyst: side crawl holds %d names, want %d", v.NumNames(), len(corpus))
	return m, nil
}

// analyzeCold is one sample of analyze_cold_s: Summary and Bottlenecks
// on a view nothing has been asked of yet.
func (r *runner) analyzeCold(ctx context.Context, v *dnstrust.View) error {
	settle()
	start := time.Now()
	v.Summary()
	summaryCold := time.Since(start)
	if _, err := v.Bottlenecks(ctx); err != nil {
		return fmt.Errorf("analyst: %w", err)
	}
	cold := time.Since(start)
	r.an.colds = append(r.an.colds, cold.Seconds())
	r.layer("analysis.summary_cold_ms", ms(summaryCold), 1)
	r.layer("analysis.bottlenecks_cold_ms", ms(cold-summaryCold), 1)
	return nil
}

// extraCold repeats the cold analysis on a throwaway monitor over the
// side corpus. With no side corpus there is none: at 50k names one cold
// pass is nine seconds, and long enough to average the machine's moods
// by itself.
func (r *runner) extraCold(ctx context.Context) error {
	if len(r.roundCorpus()) == len(r.crawled) {
		return nil
	}
	m, err := r.sideMonitor(ctx)
	if err != nil {
		return err
	}
	if err := r.analyzeCold(ctx, m.At()); err != nil {
		return errors.Join(err, m.Close())
	}
	return m.Close()
}

// analystRound is {commit a small batch, the same analyses warm, the
// delta}.
func (r *runner) analystRound(ctx context.Context, i int, batch []string) error {
	a := r.an
	settle()
	start := time.Now()
	v, err := a.mon.Add(ctx, batch...)
	if err != nil {
		return fmt.Errorf("analyst round %d: %w", i, err)
	}
	a.commits = append(a.commits, ms(time.Since(start)))
	for _, name := range batch {
		_, err := v.TCB(name)
		r.res.ops.check(err == nil, "analyst round %d: %s missing from the committed view: %v", i, name, err)
	}

	start = time.Now()
	v.Summary()
	sd := time.Since(start)
	if _, err := v.Bottlenecks(ctx); err != nil {
		return fmt.Errorf("analyst round %d: %w", i, err)
	}
	wd := time.Since(start)
	a.warm = append(a.warm, ms(wd))
	a.summaries = append(a.summaries, ms(sd))
	a.bottlenecks = append(a.bottlenecks, ms(wd-sd))

	// The delta is a layer's number only, and without Retain (the
	// daemon's wiring) it takes the by-name path, a quarter of a
	// second at 20k names: an untraced run does not pay for it.
	if r.rc.trace {
		start = time.Now()
		d, err := v.Diff(a.prev)
		if err != nil {
			return fmt.Errorf("analyst round %d: %w", i, err)
		}
		a.betweens = append(a.betweens, us(time.Since(start)))
		a.changed = append(a.changed, float64(len(d.NamesAdded)+len(d.Changed)))
		r.res.ops.check(len(d.NamesAdded) == len(batch), "analyst round %d: delta adds %d names, want %d", i, len(d.NamesAdded), len(batch))
	}
	a.prev = v
	return nil
}

func (r *runner) analystReport() {
	a := r.an
	r.e2e("analyze_cold_s", median(a.colds), len(a.colds))
	r.e2e("commit_ms", median(a.commits), len(a.commits))
	r.e2e("analyze_warm_ms", median(a.warm), len(a.warm))
	r.layer("analysis.summary_warm_ms", mean(a.summaries), len(a.summaries))
	r.layer("analysis.bottlenecks_warm_ms", mean(a.bottlenecks), len(a.bottlenecks))
	r.layer("delta.between_us", mean(a.betweens), len(a.betweens))
	r.layer("delta.names_changed", mean(a.changed), len(a.changed))
}

// restoreState is the saved session snapshot and the question put to
// every stack restored from it.
type restoreState struct {
	path    string
	refused string
	req     *dnswire.Message
	want    int64 // generation the snapshot holds
	times   []float64
}

// restore saves the serving stack's session snapshot, before the rounds
// move its monitor on.
func (r *runner) restore(ctx context.Context) error {
	rs := &restoreState{
		path: filepath.Join(r.rc.tmpDir, fmt.Sprintf("%s-%d.snap", r.rc.plan.name, r.rc.seed)),
		want: r.st.mon.Generation(),
	}
	start := time.Now()
	size, err := r.st.mon.SaveSnapshot(rs.path)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	r.layer("snapshot.save_ms", ms(time.Since(start)), 1)
	r.layer("snapshot.bytes_per_name", float64(size)/float64(r.st.mon.At().NumNames()), 1)

	for i := range r.swept {
		if t := &r.swept[i]; t.want == dnswire.RCodeRefused {
			rs.refused = t.name
			if rs.req, err = dnswire.Unpack(t.pkt); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			break
		}
	}
	if rs.req == nil {
		return fmt.Errorf("restore: no condemned name among the %d swept", len(r.swept))
	}
	r.rs = rs
	return nil
}

// restoreRound boots rc.restores stacks from the snapshot and asks each
// proxy for a condemned name: process-start equivalent → first correct
// answer, with no transport query allowed.
func (r *runner) restoreRound(ctx context.Context, round int) error {
	rs := r.rs
	settle()
	for i := 0; i < r.rc.restores; i++ {
		probe := &transportProbe{}
		start := time.Now()
		st, err := bootStack(ctx, r.world, stackOptions{
			retain: r.rc.plan.retain, workers: runtime.NumCPU(), snapshotFile: rs.path,
			crawlProbe: probe, resolveProbe: probe,
		})
		if err != nil {
			return fmt.Errorf("restore round %d: %w", round, err)
		}
		resp := st.proxy.ServeDNS(ctx, rs.req)
		rs.times = append(rs.times, ms(time.Since(start)))
		r.res.ops.check(resp != nil && resp.RCode == dnswire.RCodeRefused && st.mon.Generation() == rs.want,
			"restore round %d: %s answered %v at generation %d, want REFUSED at %d", round, rs.refused, resp, st.mon.Generation(), rs.want)
		r.res.ops.check(probe.queries.Load() == 0 && st.mon.Queries() == 0,
			"restore round %d: issued %d transport queries, want none", round, probe.queries.Load())
		// Only the add queue is stopped: see stack.close for why the
		// restored monitor is not closed.
		if err := st.cache.Close(); err != nil {
			return fmt.Errorf("restore round %d: %w", round, err)
		}
		r.restored = st // the last one stays live, as a restarted daemon's would
	}
	return nil
}

func (r *runner) restoreReport() {
	r.e2e("restore_first_answer_ms", median(r.rs.times), len(r.rs.times))
}
