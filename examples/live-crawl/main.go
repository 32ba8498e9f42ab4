// Live-crawl boots the Ukraine scenario world as real DNS servers on
// loopback (one UDP+TCP listener per nameserver) and runs the survey
// crawler over actual sockets: iterative resolution from the root,
// referrals, glue, version.bind fingerprinting — the full network path,
// then verifies the wire crawl matches the in-memory one.
//
//	go run ./examples/live-crawl
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
)

func main() {
	ctx := context.Background()
	reg := topology.UkraineWorld()
	const target = "www.rkc.lviv.ua"

	live, err := topology.StartLive(ctx, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()
	fmt.Printf("booted %d real DNS servers on loopback\n", live.NumServers())
	for _, rs := range reg.RootServers() {
		fmt.Printf("  root %s at %s\n", rs.Host, live.Addr(rs.Host))
	}

	// Crawl over the wire.
	r, err := live.Resolver()
	if err != nil {
		log.Fatal(err)
	}
	survey, err := crawler.Run(ctx, r, []string{target}, live.VersionBind, crawler.Config{})
	if err == nil {
		err = survey.Failed[target]
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncrawled %s over UDP/TCP: %d queries, %d zones, %d nameservers\n",
		target, survey.Stats.Walker.Queries, survey.Graph.NumZones(), survey.Graph.NumHosts())

	// The crawl fingerprinted every server over the wire, too.
	vulnerable := survey.VulnerableHosts()
	hosts := append([]string(nil), survey.Graph.Hosts()...)
	sort.Strings(hosts)
	for _, h := range hosts {
		if vulns := survey.Vulns(h); len(vulns) > 0 {
			fmt.Printf("  %-24s %-14s %d known exploits\n", h, survey.Banner(h), len(vulns))
		}
	}

	tcb, err := survey.Graph.TCB(target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s: TCB of %d servers, %d exploitable\n", target, len(tcb), vulnerable)
	fmt.Println("the paper's small world: a Ukrainian government site depends on")
	for _, h := range tcb {
		switch {
		case hasSuffix(h, ".edu"), hasSuffix(h, ".edu.au"):
			fmt.Printf("  a university nameserver: %s\n", h)
		}
	}

	// Cross-check against the in-memory crawl.
	dr, err := reg.Resolver(nil)
	if err != nil {
		log.Fatal(err)
	}
	direct, err := crawler.Run(ctx, dr, []string{target}, nil, crawler.Config{})
	if err == nil {
		err = direct.Failed[target]
	}
	if err != nil {
		log.Fatal(err)
	}
	directHosts := direct.Graph.Hosts()
	wireHosts := survey.Graph.Hosts()
	if len(directHosts) == len(wireHosts) {
		fmt.Printf("\nwire crawl matches in-memory crawl: %d nameservers discovered by both\n", len(wireHosts))
	} else {
		fmt.Printf("\nMISMATCH: wire %d vs direct %d\n", len(wireHosts), len(directHosts))
	}
}

func hasSuffix(s, suffix string) bool {
	return len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix
}
