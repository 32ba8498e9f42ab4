package main

import "fmt"

// mix selects which crawled names a workload's steady traffic draws
// from, by the verdict the policy gave them.
type mix int

const (
	mixAll     mix = iota // uniform over the swept names, whatever their verdict
	mixRefused            // only names the policy condemns: no upstream work
	mixAllowed            // only names the policy allows: every query resolves upstream
)

// plan is one workload. Every workload runs the same life of the
// product — boot, crawl, cold sweep, steady traffic, analysis, snapshot
// and restore, fleet, churn — so every end-to-end metric is measured on
// every workload; the plans differ in corpus size, in how the stack is
// wired, in where the seconds of traffic go, and in how large a corpus
// the analyst and fleet path works on.
type plan struct {
	name string
	why  string

	names     int     // size of the generated world's corpus
	heldShare float64 // share of the corpus kept out of the initial crawl
	retain    int     // dnstrust.Options.Retain: 0 as cmd/dnstrustd wires it, 4 as dnsmonitord is run
	sweep     int     // names swept cold over the wire; 0 = every crawled name
	mix       mix

	// trafficShare of -seconds is spent on traffic; steadyShare of that
	// is steady (reads only, a slice every cycle) and the rest is churn
	// (never-seen names arrive, get crawled in the background and commit
	// while reads continue; one stretch after the cycles). qps and
	// latency come from the longer of the two phases.
	trafficShare float64
	steadyShare  float64

	// cycles is how many times the run goes round {a slice of steady
	// traffic, an analyst round, a fleet round, restores}: every repeated
	// measurement is taken once a cycle, so the samples behind each
	// median are spread over the whole run.
	cycles int
	// side is the corpus the analyst's monitor and the fleet's shards hold
	// on a workload whose subject is the serving path: the first side
	// crawled names. 0 = all of them, and the analyst works on the serving
	// stack's own monitor.
	side int
}

func (p plan) churnPrimary() bool { return p.steadyShare < 0.5 }

// plans are the workloads of BENCHMARK.json, in its order.
var plans = []plan{
	{
		name:  "serve_refused",
		why:   "smallest packets, no upstream: socket loop, dnswire and a verdict hit are all of a query, so packet-path work shows here and resolver work must not",
		names: 20000, heldShare: 0.03, sweep: 8000, mix: mixRefused, trafficShare: 0.5, steadyShare: 0.7, cycles: 7, side: 3000,
	},
	{
		name:  "serve_resolve",
		why:   "every query resolves iteratively upstream: resolver and transport are most of a query and the socket little, so a response cache shows here and packet-path work is diluted",
		names: 20000, heldShare: 0.03, sweep: 8000, mix: mixAllowed, trafficShare: 1, steadyShare: 0.85, cycles: 7, side: 3000,
	},
	{
		name:  "serve_churn",
		why:   "writes beside reads: a fifth of the corpus arrives as never-seen names, so miss path, commit cost, eviction precision and the commit's theft of a core from serving show only here",
		names: 20000, heldShare: 0.20, mix: mixAll, trafficShare: 1, steadyShare: 0.2, cycles: 7, side: 3000,
	},
	{
		name:  "survey_pipeline",
		why:   "the analyst and fleet path at 50k names, wired as a monitor (Retain 4): crawler, core, analysis, snapshot and fleet do the work and traffic is a short sample, so serving-path work must leave it flat",
		names: 50000, heldShare: 0.10, retain: 4, sweep: 3000, mix: mixRefused, trafficShare: 0.5, steadyShare: 0.5, cycles: 4,
	},
}

func planByName(name string) (plan, error) {
	for _, p := range plans {
		if p.name == name {
			return p, nil
		}
	}
	names := make([]string, len(plans))
	for i, p := range plans {
		names[i] = p.name
	}
	return plan{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// worldSeed generates the world of every run. The seed of a run decides
// what is crawled, held out and asked for in that world, not the world:
// across ten generated worlds qps of serve_resolve moved by ±20% and
// analyze_cold_s by ±15%, which would sit in every metric's spread over
// seeds and hide a regression of that size.
const worldSeed = 1

// runConfig is one run: a plan plus the sizes a test shrinks.
type runConfig struct {
	plan    plan
	seed    int64   // seed of the crawl/held-out split and of the clients' name draws
	seconds float64 // measured traffic seconds, steady plus churn
	trace   bool
	tmpDir  string // snapshot files go here; must exist

	setups    int     // times set-up is repeated, one a cycle; setup_s is the median
	colds     int     // cold analyses on a side corpus, every other cycle; analyze_cold_s is the median
	restores  int     // restore → first answer repetitions in every cycle
	batch     int     // names per analyst and fleet round
	introRate float64 // never-seen names introduced per second of churn, all clients together
	verify    int     // names whose answer section is compared with a direct Resolve
	replay    int     // direct-call replay length of a traced run
	spansOut  string  // traced run: write the spans here ("" = keep them in memory only)
}

// defaultRun is the full-size configuration BENCHMARK.json's numbers
// are taken at. A traced run sets up once: it reports no setup_s.
func defaultRun(p plan, seed int64, seconds float64, trace bool, tmpDir string) runConfig {
	rc := runConfig{
		plan: p, seed: seed, seconds: seconds, trace: trace, tmpDir: tmpDir,
		setups: 3, colds: 3, restores: 2, batch: 50, introRate: 150, verify: 200, replay: 10000,
	}
	if trace {
		rc.setups = 1
	}
	return rc
}
