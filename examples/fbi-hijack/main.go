// FBI-hijack reproduces the §3.2 case study end to end, at the wire
// level: www.fbi.gov is served by dns{,2}.sprintip.com, whose zone is
// served by reston-ns[123].telemail.net; reston-ns2 runs BIND 8.2.4 with
// four well-documented exploits. The example fingerprints the chain,
// compromises reston-ns2 (with a link-saturation DoS on its siblings,
// as the paper describes), and shows a genuine iterative resolution being
// diverted to the attacker's address — forged DNS messages and all.
//
//	go run ./examples/fbi-hijack
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"sort"

	"dnstrust/internal/crawler"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/hijack"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

func main() {
	ctx := context.Background()
	reg := topology.FBIWorld()
	const target = "www.fbi.gov"

	// Step 1: survey the dependency chain, exactly as the paper's crawler
	// would.
	contacts := transport.NewCounter()
	r, err := reg.Resolver(transport.Chain(reg.Source(), contacts.Middleware()))
	if err != nil {
		log.Fatal(err)
	}
	survey, err := crawler.Run(ctx, r, []string{target}, reg.ProbeFunc(nil), crawler.Config{})
	if err == nil {
		err = survey.Failed[target]
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("dependency chain of %s:\n", target)
	hosts := append([]string(nil), survey.Graph.Hosts()...)
	sort.Strings(hosts)
	for _, h := range hosts {
		shown := survey.Banner(h)
		if shown == "" {
			shown = "(hidden)"
		}
		if vulns := survey.Vulns(h); len(vulns) > 0 {
			var names []string
			for _, v := range vulns {
				names = append(names, v.Name)
			}
			fmt.Printf("  %-28s %-12s VULNERABLE: %v\n", h, shown, names)
		} else {
			fmt.Printf("  %-28s %-12s\n", h, shown)
		}
	}

	// Step 2: honest resolution, from the root.
	before := contacts.Queries()
	honest, err := r.Resolve(ctx, target, dnswire.TypeA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhonest resolution: %s -> %v (%d server contacts)\n",
		target, honest.Addrs, contacts.Queries()-before)

	// Step 3: the attack. Crack reston-ns2 with its libbind exploit,
	// saturate the links of its siblings so the resolver must use it.
	attacker := netip.MustParseAddr("203.0.113.66")
	compromised := reg.Server("reston-ns2.telemail.net")
	reg.SetLame("reston-ns1.telemail.net", true)
	reg.SetLame("reston-ns3.telemail.net", true)

	forged := hijack.NewForgingTransport(
		reg.Source(),
		[]netip.Addr{compromised.Addr},
		attacker,
	)
	evil, err := reg.Resolver(forged)
	if err != nil {
		log.Fatal(err)
	}
	diverted, err := evil.Resolve(ctx, target, dnswire.TypeA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunder attack (compromise reston-ns2, DoS reston-ns1/3):\n")
	fmt.Printf("  %s -> %v  (%d forged responses on the path)\n",
		target, diverted.Addrs, forged.Diverted())
	if len(diverted.Addrs) == 1 && diverted.Addrs[0] == attacker {
		fmt.Printf("  HIJACKED: clients now reach the attacker's web server.\n")
	}

	// Step 4: the analytic verdict agrees.
	atk, err := hijack.New(survey.Graph,
		[]string{"reston-ns2.telemail.net"},
		[]string{"reston-ns1.telemail.net", "reston-ns3.telemail.net"})
	if err != nil {
		log.Fatal(err)
	}
	verdict, err := atk.Verdict(target)
	if err != nil {
		log.Fatal(err)
	}
	frac, err := atk.MonteCarlo(target, 2000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalytic verdict: %v hijack (%.0f%% of 2000 sampled strategies diverted)\n",
		verdict, 100*frac)
}
