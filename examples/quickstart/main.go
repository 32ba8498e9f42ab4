// Quickstart: generate a small synthetic Internet, survey it, and print
// the paper's headline statistics plus one name's trusted computing base.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dnstrust"
)

func main() {
	ctx := context.Background()

	// A small world: 3000 web names over a few thousand zones. The
	// paper's scale is Names: 593160.
	m, err := dnstrust.Open(ctx, dnstrust.Options{Seed: 1, Names: 3000})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	v, err := m.Add(ctx, m.World().Corpus...)
	if err != nil {
		log.Fatal(err)
	}

	sum := v.Summary()
	fmt.Printf("surveyed %d names across %d nameservers\n", sum.Names, sum.Servers)
	fmt.Printf("TCB size: median %d, mean %.1f, max %d\n",
		sum.TCB.Median(), sum.TCB.Mean(), sum.TCB.Max())
	fmt.Printf("directly trusted servers per name: %.1f (the rest is transitive trust)\n",
		sum.DirectMean)
	fmt.Printf("vulnerable servers: %d (%.1f%%) -> affected names: %d (%.1f%%)\n",
		sum.VulnerableServers,
		100*float64(sum.VulnerableServers)/float64(sum.Servers),
		sum.AffectedNames,
		100*float64(sum.AffectedNames)/float64(sum.Names))

	// Inspect one name's dependency set.
	name := v.Survey().Names[0]
	tcb, err := v.TCB(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s transitively trusts %d nameservers, e.g.:\n", name, len(tcb))
	for i, h := range tcb {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", len(tcb)-8)
			break
		}
		fmt.Printf("  %s\n", h)
	}

	// How hard is a complete hijack of that name?
	res, err := v.Bottleneck(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncomplete hijack of %s needs %d servers (%d already vulnerable, %d safe)\n",
		name, res.Size, res.VulnInCut, res.SafeInCut)

	// The paper's §5 stopgap: audit where the trust actually goes.
	findings, err := v.Audit(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrust audit of %s (%d findings):\n", name, len(findings))
	for i, f := range findings {
		if i == 6 {
			fmt.Printf("  ... and %d more\n", len(findings)-6)
			break
		}
		fmt.Printf("  %s\n", f)
	}
}
