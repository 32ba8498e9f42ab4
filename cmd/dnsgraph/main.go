// Command dnsgraph prints the delegation graph of a name: its trusted
// computing base, its zone dependency structure, or Graphviz DOT suitable
// for rendering Figure 1.
//
// Usage:
//
//	dnsgraph -world figure1 -name www.cs.cornell.edu -format dot
//	dnsgraph -world gen -names 5000 -name <corpus name> -format tcb
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
)

func main() {
	world := flag.String("world", "figure1", "world: figure1 | fbi | ukraine | gen")
	name := flag.String("name", "", "name to graph (defaults to the world's signature name)")
	format := flag.String("format", "dot", "output: dot | tcb | zones")
	names := flag.Int("names", 2000, "corpus size for -world gen")
	seed := flag.Int64("seed", 1, "seed for -world gen")
	flag.Parse()

	reg, defName, err := buildWorld(*world, *names, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsgraph: %v\n", err)
		os.Exit(1)
	}
	if *name == "" {
		*name = defName
	}

	r, err := reg.Resolver(nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsgraph: %v\n", err)
		os.Exit(1)
	}
	survey, err := crawler.Run(context.Background(), r, []string{*name}, nil, crawler.Config{})
	if err == nil {
		err = survey.Failed[*name]
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsgraph: walking %s: %v\n", *name, err)
		os.Exit(1)
	}
	g := survey.Graph

	switch *format {
	case "dot":
		dot, err := g.DOT(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dnsgraph: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(dot)
	case "tcb":
		printTCB(g, *name)
	case "zones":
		printZones(g, *name)
	default:
		fmt.Fprintf(os.Stderr, "dnsgraph: unknown format %q\n", *format)
		os.Exit(2)
	}
}

func buildWorld(kind string, names int, seed int64) (*topology.Registry, string, error) {
	switch kind {
	case "figure1":
		return topology.Figure1World(), "www.cs.cornell.edu", nil
	case "fbi":
		return topology.FBIWorld(), "www.fbi.gov", nil
	case "ukraine":
		return topology.UkraineWorld(), "www.rkc.lviv.ua", nil
	case "gen":
		w, err := topology.Generate(topology.GenParams{Seed: seed, Names: names})
		if err != nil {
			return nil, "", err
		}
		return w.Registry, w.Corpus[0], nil
	default:
		return nil, "", fmt.Errorf("unknown world %q", kind)
	}
}

func printTCB(g *core.Graph, name string) {
	tcb, err := g.TCB(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsgraph: %v\n", err)
		os.Exit(1)
	}
	owned, external, _ := g.OwnedServers(name)
	fmt.Printf("TCB of %s: %d nameservers (%d owner-run, %d external)\n",
		name, len(tcb), len(owned), len(external))
	for _, h := range tcb {
		marker := " "
		for _, o := range owned {
			if o == h {
				marker = "*"
			}
		}
		fmt.Printf("  %s %s\n", marker, h)
	}
}

func printZones(g *core.Graph, name string) {
	ids, err := g.ReachableZoneIDs(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsgraph: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("delegation graph of %s: %d zones\n", name, len(ids))
	for _, z := range ids {
		apex := g.Zones()[z]
		fmt.Printf("  %-30s %d nameservers\n", apex+".", len(g.ZoneNS(apex)))
	}
}
