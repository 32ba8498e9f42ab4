package hijack_test

import (
	"context"
	"net/netip"
	"testing"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/hijack"
	"dnstrust/internal/mincut"
	"dnstrust/internal/topology"
)

func fbiGraph(t *testing.T) (*topology.Registry, *core.Graph) {
	t.Helper()
	reg := topology.FBIWorld()
	r, err := reg.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := crawler.Run(context.Background(), r, []string{"www.fbi.gov"}, nil, crawler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Failed["www.fbi.gov"]; err != nil {
		t.Fatal(err)
	}
	return reg, s.Graph
}

func TestNoAttackUnaffected(t *testing.T) {
	_, g := fbiGraph(t)
	a, err := hijack.New(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Verdict("www.fbi.gov")
	if err != nil {
		t.Fatal(err)
	}
	if v != hijack.Unaffected {
		t.Errorf("verdict = %v, want unaffected", v)
	}
}

func TestPartialHijack(t *testing.T) {
	_, g := fbiGraph(t)
	// One of two fbi.gov servers compromised: partial.
	a, err := hijack.New(g, []string{"dns.sprintip.com"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.Verdict("www.fbi.gov")
	if v != hijack.Partial {
		t.Errorf("verdict = %v, want partial", v)
	}
	frac, err := a.MonteCarlo("www.fbi.gov", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if frac <= 0 || frac >= 1 {
		t.Errorf("partial hijack trial fraction = %v, want strictly between 0 and 1", frac)
	}
}

func TestCompleteHijackOfAuthZone(t *testing.T) {
	_, g := fbiGraph(t)
	a, err := hijack.New(g, []string{"dns.sprintip.com", "dns2.sprintip.com"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.Verdict("www.fbi.gov")
	if v != hijack.Complete {
		t.Errorf("verdict = %v, want complete", v)
	}
	frac, err := a.MonteCarlo("www.fbi.gov", 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 {
		t.Errorf("complete hijack trial fraction = %v, want 1.0", frac)
	}
}

// TestPaperScenario reproduces §3.2: compromising the telemail.net
// servers (which serve sprintip.com) completely hijacks www.fbi.gov
// transitively — the fbi.gov servers' addresses can no longer be
// resolved cleanly.
func TestPaperScenario(t *testing.T) {
	_, g := fbiGraph(t)
	a, err := hijack.New(g, []string{
		"reston-ns1.telemail.net", "reston-ns2.telemail.net", "reston-ns3.telemail.net",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.Verdict("www.fbi.gov")
	if v != hijack.Complete {
		t.Errorf("verdict = %v, want complete (transitive hijack)", v)
	}
	if a.CleanlyUsable("dns.sprintip.com") {
		t.Error("dns.sprintip.com should not be cleanly usable: its address chain is owned")
	}
}

// TestDoSPlusCompromise reproduces the paper's combination attack: DoS
// the safe bottleneck server, compromise the vulnerable one.
func TestDoSPlusCompromise(t *testing.T) {
	_, g := fbiGraph(t)
	a, err := hijack.New(g,
		[]string{"dns.sprintip.com"},  // compromised
		[]string{"dns2.sprintip.com"}, // denial-of-serviced
	)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.Verdict("www.fbi.gov")
	if v != hijack.Complete {
		t.Errorf("verdict = %v, want complete under DoS+compromise", v)
	}
}

func TestUnknownServerRejected(t *testing.T) {
	_, g := fbiGraph(t)
	if _, err := hijack.New(g, []string{"nonexistent.example.com"}, nil); err == nil {
		t.Error("unknown compromised server must be rejected")
	}
	if _, err := hijack.New(g, nil, []string{"nonexistent.example.com"}); err == nil {
		t.Error("unknown downed server must be rejected")
	}
}

func TestVerdictUnknownName(t *testing.T) {
	_, g := fbiGraph(t)
	a, _ := hijack.New(g, nil, nil)
	if _, err := a.Verdict("not.surveyed.example"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[hijack.Verdict]string{
		hijack.Unaffected: "unaffected",
		hijack.Partial:    "partial",
		hijack.Complete:   "complete",
	} {
		if v.String() != want {
			t.Errorf("Verdict(%d) = %q", v, v.String())
		}
	}
}

// TestMinCutImpliesComplete cross-validates the min-cut analysis: the
// returned cut set, when compromised, must yield a complete hijack.
func TestMinCutImpliesComplete(t *testing.T) {
	_, g := fbiGraph(t)
	a, err := hijack.New(g, cutHosts(t, g, "www.fbi.gov"), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.Verdict("www.fbi.gov")
	if v != hijack.Complete {
		t.Errorf("compromising the min-cut gave %v, want complete", v)
	}
}

// cutHosts returns the name's minimum cut by host name, straight from
// the digraph and the solver without the analysis plumbing.
func cutHosts(t *testing.T, g *core.Graph, name string) []string {
	t.Helper()
	cid, ok := g.NameChainID(name)
	if !ok {
		t.Fatalf("%s not surveyed", name)
	}
	var d core.Digraph
	if err := d.Fill(g, cid); err != nil {
		t.Fatal(err)
	}
	var sv mincut.Solver
	cut, err := sv.Analyze(&d, func(int32) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, v := range cut.Nodes {
		hosts = append(hosts, g.Host(d.Hosts[v]))
	}
	return hosts
}

func TestForgingTransportDivertsResolution(t *testing.T) {
	reg := topology.FBIWorld()
	attacker := netip.MustParseAddr("203.0.113.66")

	// Compromise reston-ns2.telemail.net at the wire level.
	comp := reg.Server("reston-ns2.telemail.net")
	if comp == nil {
		t.Fatal("missing server")
	}
	// Take the other two telemail servers down so the resolver must use
	// the compromised one (a targeted link-saturation attack, as the
	// paper puts it).
	reg.SetLame("reston-ns1.telemail.net", true)
	reg.SetLame("reston-ns3.telemail.net", true)

	forged := hijack.NewForgingTransport(
		reg.Source(),
		[]netip.Addr{comp.Addr},
		attacker,
	)
	r, err := reg.Resolver(forged)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve under attack: %v", err)
	}
	if len(res.Addrs) != 1 || res.Addrs[0] != attacker {
		t.Errorf("resolved to %v, want attacker address %v", res.Addrs, attacker)
	}
	if forged.Diverted() == 0 {
		t.Error("no responses were forged")
	}
}

func TestForgingTransportHonestWithoutAttack(t *testing.T) {
	reg := topology.FBIWorld()
	forged := hijack.NewForgingTransport(
		reg.Source(), nil,
		netip.MustParseAddr("203.0.113.66"))
	r, err := reg.Resolver(forged)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(context.Background(), "www.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if forged.Diverted() != 0 {
		t.Error("forged responses without compromised servers")
	}
	if len(res.Addrs) != 1 || res.Addrs[0].String() == "203.0.113.66" {
		t.Errorf("honest resolution broken: %v", res.Addrs)
	}
}
