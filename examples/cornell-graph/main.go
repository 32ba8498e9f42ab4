// Cornell-graph reproduces Figure 1 of the paper: the delegation graph of
// www.cs.cornell.edu, whose resolution transitively depends on
// nameservers at Rochester, Wisconsin, and — surprisingly — Michigan.
// It prints the dependency structure and emits Graphviz DOT on stdout
// (redirect to a file and render with `dot -Tsvg`).
//
//	go run ./examples/cornell-graph > figure1.dot
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
)

func main() {
	ctx := context.Background()
	reg := topology.Figure1World()

	r, err := reg.Resolver(nil)
	if err != nil {
		log.Fatal(err)
	}
	const name = "www.cs.cornell.edu"
	survey, err := crawler.Run(ctx, r, []string{name}, nil, crawler.Config{})
	if err == nil {
		err = survey.Failed[name]
	}
	if err != nil {
		log.Fatal(err)
	}
	g := survey.Graph

	tcb, err := g.TCB(name)
	if err != nil {
		log.Fatal(err)
	}
	owned, external, err := g.OwnedServers(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s depends on %d nameservers (%d at Cornell, %d elsewhere)\n",
		name, len(tcb), len(owned), len(external))
	fmt.Fprintf(os.Stderr, "\nzone dependency chain (who trusts whom):\n")
	ids, err := g.ReachableZoneIDs(name)
	if err != nil {
		log.Fatal(err)
	}
	for _, z := range ids {
		apex := g.Zones()[z]
		fmt.Fprintf(os.Stderr, "  %-22s served by %d nameservers\n", apex+".", len(g.ZoneNS(apex)))
	}
	fmt.Fprintf(os.Stderr, "\nthe paper's point: Cornell never chose to trust umich.edu, yet:\n")
	for _, h := range external {
		fmt.Fprintf(os.Stderr, "  indirect dependency: %s\n", h)
	}

	dot, err := g.DOT(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(dot)
}
