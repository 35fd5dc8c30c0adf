// Cached-service walkthrough: experiments as content-addressed values.
// This example opens the experiment service over a store directory,
// runs the same spec twice (the second answer comes from the store,
// byte-identical, no simulation), shows that an equivalent rendering of
// the spec hashes to the same address, and then streams a grid through
// the cache — the machinery behind `tsnoop serve`, `tsnoop submit`,
// and the -cache flag.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"tsnoop/internal/harness"
	"tsnoop/internal/service"
	"tsnoop/internal/spec"
	"tsnoop/internal/system"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "tsnoop-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sv, err := service.New(service.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// 1. One experiment, named by its content. The canonical hash is
	// what the store and the dedup queue key on.
	s := spec.New("barnes",
		spec.WithNodes(4),
		spec.WithWarmup(400),
		spec.WithQuota(800),
		spec.WithSeeds(2),
		spec.WithPerturbNS(3))
	fmt.Printf("spec address: %s\n\n", s.Canonical()[:16])

	// 2. First submission simulates; the repeat is a store hit with the
	// identical bytes.
	first, err := sv.Do(ctx, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first:  cached=%-5v runtime=%v\n", first.Cached, first.Run.Runtime)
	second, err := sv.Do(ctx, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second: cached=%-5v byte-identical=%v\n", second.Cached, string(first.Data) == string(second.Data))

	// 3. Equivalent renderings share the address: worker counts never
	// change results, so they never miss the cache.
	alt := s
	alt.Workers = 8
	res, err := sv.Do(ctx, alt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alt:    cached=%-5v (same experiment, different rendering)\n\n", res.Cached)

	// 4. Grids stream through the same store, cell by cell in
	// presentation order — the second pass renders without simulating.
	e := harness.FromSpec(s)
	for pass := 1; pass <= 2; pass++ {
		fmt.Printf("grid pass %d:\n", pass)
		for cell, err := range sv.StreamGrid(ctx, e, system.NetButterfly) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s/%s runtime %v\n", cell.Cell.Benchmark, cell.Cell.Protocol, cell.Best.Runtime)
		}
	}
	st := sv.StoreStats()
	fmt.Printf("\nstore: %d entries, %d hits, %d puts in %s\n", st.Entries, st.Hits, st.Puts, dir)
}
