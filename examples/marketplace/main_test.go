package main

// The marketplace table EXPERIMENTS.md records, pinned: a change in the
// volunteer preset, an allocator or the policy builder moves a number here.
func Example() {
	main()
	// Output:
	// == marketplace, autonomous sellers ==
	// mediation              order RT  sat(buyers)  sat(sellers)  sellers delisted
	// Economic (price only)  10.86     0.683        0.521         25/120
	// Capacity (load only)   12.74     0.692        0.506         13/120
	// SbQA                   11.48     0.719        0.820         8/120
	//
	// price-only and load-only mediations keep sending sellers orders
	// they do not want; dissatisfied sellers delist and the marketplace
	// shrinks. SbQA routes by mutual interest and keeps the long tail.
}
