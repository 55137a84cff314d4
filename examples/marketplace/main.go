// Marketplace example: SbQA outside volunteer computing. An e-commerce
// mediator routes purchase requests (queries) from buyer segments
// (consumers) to seller storefronts (providers). Sellers have assortative
// interests — a flash-sale segment most sellers chase, a standard segment,
// and a niche segment few sellers care about. Autonomous sellers delist
// from marketplaces that keep sending them orders they do not want.
//
// This is the paper's point that SbQA "is suitable for many more
// applications such as e-commerce and Web services": only the workload
// declaration changes; the allocation process is untouched.
//
// Run with: go run ./examples/marketplace
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"sbqa"
)

func main() {
	const sellers = 120
	const seed = 99

	// Declare the marketplace as a workload: segments replace projects,
	// sellers replace volunteers. Purchase requests need a single result
	// (no replication) and buyers expect sub-10s handling.
	specs := []sbqa.ProjectSpec{
		{Name: "flash-sale", Popularity: sbqa.Popular, ArrivalShare: 0.5, Replication: 1, DelayTarget: 10},
		{Name: "standard", Popularity: sbqa.Normal, ArrivalShare: 0.35, Replication: 1, DelayTarget: 10},
		{Name: "niche", Popularity: sbqa.Unpopular, ArrivalShare: 0.15, Replication: 1, DelayTarget: 10},
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "== marketplace, autonomous sellers ==")
	fmt.Fprintln(tw, "mediation\torder RT\tsat(buyers)\tsat(sellers)\tsellers delisted")
	for _, tech := range []struct {
		name string
		spec sbqa.PolicySpec
	}{
		{"Economic (price only)", sbqa.PolicySpec{Kind: sbqa.PolicyEconomic, Seed: seed}},
		{"Capacity (load only)", sbqa.PolicySpec{Kind: sbqa.PolicyCapacity}},
		{"SbQA", sbqa.PolicySpec{Kind: sbqa.PolicySbQA, Seed: seed}},
	} {
		sc := sbqa.Volunteering(sellers, 1500, seed)
		sc.Workload.Volunteers.Projects = specs
		sc.Workload.Volunteers.Autonomous = true
		sc.Policy = tech.spec
		r, err := sbqa.RunScenario(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marketplace example:", err)
			os.Exit(1)
		}
		v := r.Volunteers
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.3f\t%d/%d\n", tech.name, r.MeanResponse, v.ConsumerSat, v.ProviderSat, v.ProvidersLeft, sellers)
	}
	tw.Flush()
	fmt.Println("\nprice-only and load-only mediations keep sending sellers orders")
	fmt.Println("they do not want; dissatisfied sellers delist and the marketplace")
	fmt.Println("shrinks. SbQA routes by mutual interest and keeps the long tail.")
}
