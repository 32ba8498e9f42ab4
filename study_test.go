package dnstrust

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

// surveyCorpus is the one-shot study: open a session over a generated
// world, crawl its whole corpus as one batch, and close the session. The
// closed Monitor still serves its World and its final View (At).
func surveyCorpus(opts Options) (*Monitor, error) {
	ctx := context.Background()
	m, err := Open(ctx, opts)
	if err != nil {
		return nil, err
	}
	_, err = m.Add(ctx, m.World().Corpus...)
	return m, errors.Join(err, m.Close())
}

// The study is expensive; build it once for the whole test binary.
var (
	studyOnce sync.Once
	testStudy *Monitor
	studyErr  error
)

func sharedStudy(t *testing.T) *Monitor {
	t.Helper()
	studyOnce.Do(func() {
		testStudy, studyErr = surveyCorpus(Options{Seed: 1, Names: 6000})
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return testStudy
}

func TestStudyDefaults(t *testing.T) {
	m := sharedStudy(t)
	s := m.At().Survey()
	if len(s.Names) == 0 {
		t.Fatal("no names surveyed")
	}
	if len(s.Failed) != 0 {
		for n, err := range s.Failed {
			t.Errorf("failed walk %s: %v", n, err)
		}
	}
	if got := len(s.Names); got != len(m.World().Corpus) {
		t.Errorf("surveyed %d of %d corpus names", got, len(m.World().Corpus))
	}
}

func TestStudyFacade(t *testing.T) {
	s := sharedStudy(t).At()
	name := s.Survey().Names[0]
	tcb, err := s.TCB(name)
	if err != nil || len(tcb) == 0 {
		t.Fatalf("TCB(%s) = %v, %v", name, tcb, err)
	}
	dot, err := s.DOT(name)
	if err != nil || !strings.Contains(dot, "digraph") {
		t.Fatalf("DOT: %v", err)
	}
	sum := s.Summary()
	if sum.Names == 0 || sum.TCB.Mean() <= 0 {
		t.Fatal("summary empty")
	}
	res, err := s.Bottleneck(name)
	if err != nil || res.Size < 1 {
		t.Fatalf("Bottleneck: %+v, %v", res, err)
	}
	atk, err := s.Attack(res.Cut, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := atk.Verdict(name)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "complete" {
		t.Errorf("compromising the min-cut of %s gave %v, want complete", name, v)
	}
}

// TestRunAllExperiments is the reproduction gate: every experiment must
// run, and every paper-vs-measured shape claim must hold at this scale.
func TestRunAllExperiments(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunAll(context.Background(), sharedStudy(t).At(), &buf)
	if err != nil {
		t.Fatalf("RunAll: %v\noutput so far:\n%s", err, buf.String())
	}
	if len(rows) < 25 {
		t.Errorf("only %d comparison rows", len(rows))
	}
	for _, c := range rows {
		if !c.Holds {
			t.Errorf("%s / %s: paper %q measured %q — shape does NOT hold",
				c.Experiment, c.Quantity, c.Paper, c.Measured)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 7", "T-C", "fbi.gov",
		"Paper vs measured",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("%d experiments, want 14 (9 figures + 4 tables + drift)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestStudyDeterminism(t *testing.T) {
	ma, err := surveyCorpus(Options{Seed: 9, Names: 300})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := surveyCorpus(Options{Seed: 9, Names: 300, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ma.At().Survey(), mb.At().Survey()
	if len(a.Names) != len(b.Names) {
		t.Fatal("name counts differ")
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			t.Fatal("names differ")
		}
		if a.Graph.TCBSize(a.Names[i]) != b.Graph.TCBSize(b.Names[i]) {
			t.Fatal("TCB sizes differ")
		}
	}
}

// TestWireFramedStudyMatchesDirect surveys one world twice: over the
// in-memory transport, and with every query round-tripped through the
// DNS wire codec, composed through Options.Source.
func TestWireFramedStudyMatchesDirect(t *testing.T) {
	ctx := context.Background()
	md, err := surveyCorpus(Options{Seed: 11, Names: 200})
	if err != nil {
		t.Fatal(err)
	}
	w, err := topology.Generate(topology.GenParams{Seed: 11, Names: 200})
	if err != nil {
		t.Fatal(err)
	}
	mw, err := OpenWorld(ctx, w, Options{Source: transport.Chain(w.Registry.Source(), transport.WireFramed())})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mw.Add(ctx, w.Corpus...)
	if err := errors.Join(err, mw.Close()); err != nil {
		t.Fatal(err)
	}
	direct, wired := md.At().Survey(), mw.At().Survey()
	if len(direct.Names) != len(wired.Names) {
		t.Fatal("name counts differ between transports")
	}
	for _, n := range direct.Names {
		if direct.Graph.TCBSize(n) != wired.Graph.TCBSize(n) {
			t.Fatalf("TCB(%s) differs between direct and wire-framed transports", n)
		}
	}
}
