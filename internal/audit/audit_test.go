package audit_test

import (
	"context"
	"strings"
	"testing"

	"dnstrust/internal/audit"
	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
)

// scenarioSurvey crawls and fingerprints one name of a hand-built world.
func scenarioSurvey(t *testing.T, reg *topology.Registry, name string) *crawler.Survey {
	t.Helper()
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := crawler.Run(context.Background(), r, []string{name}, reg.ProbeFunc(nil), crawler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Failed[name]; err != nil {
		t.Fatal(err)
	}
	return s
}

// fbiSurvey builds a fingerprinted survey of the FBI world.
func fbiSurvey(t *testing.T) *crawler.Survey {
	return scenarioSurvey(t, topology.FBIWorld(), "www.fbi.gov")
}

func TestAuditFBIFindsVulnerableDependency(t *testing.T) {
	s := fbiSurvey(t)
	findings, err := audit.Name(s, "www.fbi.gov", audit.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	foundVuln := false
	for _, f := range findings {
		if f.Kind == audit.KindVulnerableDependency && f.Subject == "reston-ns2.telemail.net" {
			foundVuln = true
			if f.Severity != audit.Critical {
				t.Errorf("vulnerable dependency severity = %v", f.Severity)
			}
			if !strings.Contains(f.Detail, "8.2.4") {
				t.Errorf("detail missing version: %s", f.Detail)
			}
		}
	}
	if !foundVuln {
		t.Errorf("audit missed the paper's reston-ns2 dependency; findings: %v", findings)
	}
	if audit.Worst(findings) != audit.Critical {
		t.Error("worst severity should be critical")
	}
}

func TestAuditExternalTrust(t *testing.T) {
	s := fbiSurvey(t)
	findings, err := audit.Name(s, "www.fbi.gov", audit.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// fbi.gov runs no nameservers of its own: the audit must say so.
	found := false
	for _, f := range findings {
		if f.Kind == audit.KindExternalTrust {
			found = true
		}
	}
	if !found {
		t.Errorf("audit missed fully external direct trust; findings: %v", findings)
	}
}

func TestAuditUkraineWorstCase(t *testing.T) {
	s := scenarioSurvey(t, topology.UkraineWorld(), "www.rkc.lviv.ua")

	// Low threshold so the Ukraine TCB trips the policy.
	findings, err := audit.Name(s, "www.rkc.lviv.ua", audit.Policy{MaxTCB: 10})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[audit.Kind]bool{}
	for _, f := range findings {
		kinds[f.Kind] = true
	}
	if !kinds[audit.KindExcessiveTCB] {
		t.Error("audit missed the oversized TCB")
	}
	if !kinds[audit.KindCrossTLDDependency] {
		t.Error("audit missed the cross-TLD small world")
	}
	if !kinds[audit.KindSingleServerZone] {
		t.Error("audit missed the single-server telstra.net zone")
	}
}

func TestAuditFindingsSortedBySeverity(t *testing.T) {
	s := fbiSurvey(t)
	findings, err := audit.Name(s, "www.fbi.gov", audit.Policy{MaxTCB: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(findings); i++ {
		if findings[i].Severity > findings[i-1].Severity {
			t.Fatal("findings not sorted by severity")
		}
	}
}

func TestAuditUnknownName(t *testing.T) {
	s := fbiSurvey(t)
	if _, err := audit.Name(s, "unknown.example.com", audit.Policy{}); err == nil {
		t.Error("auditing an unsurveyed name must error")
	}
}

func TestSeverityAndKindStrings(t *testing.T) {
	if audit.Critical.String() != "CRITICAL" || audit.Info.String() != "info" || audit.Warning.String() != "warning" {
		t.Error("severity strings wrong")
	}
	for k := audit.KindExcessiveTCB; k <= audit.KindCrossTLDDependency; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	f := audit.Finding{Severity: audit.Critical, Kind: audit.KindVulnerableDependency,
		Subject: "x", Detail: "y"}
	if !strings.Contains(f.String(), "CRITICAL") || !strings.Contains(f.String(), "x") {
		t.Errorf("finding string: %s", f)
	}
}

func TestWorstEmpty(t *testing.T) {
	if audit.Worst(nil) != audit.Info {
		t.Error("empty findings should be Info")
	}
}
