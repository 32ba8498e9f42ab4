// Command dnshijack runs attack simulations against a scenario world:
// pick compromised and denial-of-serviced servers, and see whether a
// target name's resolution is unaffected, partially hijackable, or
// completely hijacked — with Monte-Carlo cross-validation and the
// min-cut attack plan.
//
// Usage:
//
//	dnshijack -world fbi -target www.fbi.gov \
//	    -compromise reston-ns2.telemail.net -dos reston-ns1.telemail.net,reston-ns3.telemail.net
//
//	dnshijack -world fbi -target www.fbi.gov -plan   # print the cheapest attack
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/hijack"
	"dnstrust/internal/topology"
)

func main() {
	world := flag.String("world", "fbi", "world: figure1 | fbi | ukraine")
	target := flag.String("target", "", "name to attack (defaults to the world's signature name)")
	compromise := flag.String("compromise", "", "comma-separated servers under attacker control")
	dos := flag.String("dos", "", "comma-separated servers taken down by denial of service")
	plan := flag.Bool("plan", false, "print the min-cut attack plan instead of simulating")
	trials := flag.Int("trials", 2000, "Monte-Carlo resolution strategies to sample")
	flag.Parse()

	var reg *topology.Registry
	var defTarget string
	switch *world {
	case "figure1":
		reg, defTarget = topology.Figure1World(), "www.cs.cornell.edu"
	case "fbi":
		reg, defTarget = topology.FBIWorld(), "www.fbi.gov"
	case "ukraine":
		reg, defTarget = topology.UkraineWorld(), "www.rkc.lviv.ua"
	default:
		fmt.Fprintf(os.Stderr, "dnshijack: unknown world %q\n", *world)
		os.Exit(2)
	}
	if *target == "" {
		*target = defTarget
	}

	ctx := context.Background()
	r, err := reg.Resolver(nil)
	if err != nil {
		fatal(err)
	}
	survey, err := crawler.Run(ctx, r, []string{*target}, reg.ProbeFunc(nil), crawler.Config{})
	if err == nil {
		err = survey.Failed[*target]
	}
	if err != nil {
		fatal(fmt.Errorf("walking %s: %w", *target, err))
	}

	if *plan {
		printPlan(survey, *target)
		return
	}

	comp := splitHosts(*compromise)
	downed := splitHosts(*dos)
	atk, err := hijack.New(survey.Graph, comp, downed)
	if err != nil {
		fatal(err)
	}
	verdict, err := atk.Verdict(*target)
	if err != nil {
		fatal(err)
	}
	frac, err := atk.MonteCarlo(*target, *trials, 1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("target:       %s\n", *target)
	fmt.Printf("compromised:  %v\n", comp)
	fmt.Printf("dos'd:        %v\n", downed)
	fmt.Printf("verdict:      %v hijack\n", verdict)
	fmt.Printf("monte carlo:  %.1f%% of %d random resolution strategies diverted\n",
		100*frac, *trials)
}

func printPlan(s *crawler.Survey, target string) {
	res, err := analysis.BottleneckOf(s, target)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bottleneck analysis for %s\n", target)
	fmt.Printf("minimum complete-hijack cut: %d servers\n", res.Size)
	for _, h := range res.Cut {
		status := "SAFE"
		if s.Vulnerable(h) {
			status = "VULNERABLE: " + vulnNames(s, h)
		}
		fmt.Printf("  %-34s %s\n", h, status)
	}
	fmt.Printf("cheapest mixed attack: compromise %d vulnerable + DoS %d safe bottleneck servers\n",
		res.VulnInCut, res.SafeInCut)
	exact := analysis.ANDORHijackBound(s, []string{target})
	if len(exact) == 1 {
		fmt.Printf("AND/OR tree-cost bound: %d server compromises\n", exact[0])
	}
}

func vulnNames(s *crawler.Survey, host string) string {
	var names []string
	for _, v := range s.Vulns(host) {
		names = append(names, v.Name)
	}
	return strings.Join(names, ", ")
}

func splitHosts(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dnshijack: %v\n", err)
	os.Exit(1)
}
