// Command benchguard compares a `go test -bench` run against the
// committed baseline in BENCH_5.json and fails on regressions.
//
// Two checks per guarded benchmark:
//
//   - allocs/op must not exceed the baseline. Allocation counts are
//     machine-independent, so this is an exact gate: the allocation-free
//     hot paths stay allocation-free.
//   - ns/op must not exceed baseline * factor (guard.ns_op_factor in the
//     baseline file, default 1.2, overridable with BENCH_NSOP_FACTOR).
//     Wall-clock comparisons across machines are noisy; the factor
//     absorbs that, and the allocation gate is the exact one.
//
// Usage:
//
//	go test -bench 'Kernel|Broadcast|Miss|CacheSnoopProbe|SystemBuild' -benchmem -run '^$' . | go run ./scripts/benchguard
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

type measurement struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

type baseline struct {
	Benchmarks map[string]struct {
		After *measurement `json:"after"`
	} `json:"benchmarks"`
	Guard struct {
		Benchmarks []string `json:"benchmarks"`
		NsOpFactor float64  `json:"ns_op_factor"`
	} `json:"guard"`
}

// resultRe matches one `go test -bench -benchmem` result line, e.g.
// "BenchmarkKernelEvents-8   100  33.9 ns/op  0 B/op  0 allocs/op".
var resultRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ \S+)*?\s+([\d.]+) B/op\s+([\d.]+) allocs/op`)

func main() {
	basePath := flag.String("baseline", "BENCH_5.json", "committed baseline file")
	flag.Parse()

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: parsing baseline:", err)
		os.Exit(2)
	}
	factor := base.Guard.NsOpFactor
	if factor <= 0 {
		factor = 1.2
	}
	if env := os.Getenv("BENCH_NSOP_FACTOR"); env != "" {
		f, err := strconv.ParseFloat(env, 64)
		if err != nil || f <= 0 {
			fmt.Fprintf(os.Stderr, "benchguard: bad BENCH_NSOP_FACTOR %q\n", env)
			os.Exit(2)
		}
		factor = f
	}

	got := map[string]measurement{}
	lines := map[string][]string{} // raw result lines per benchmark, for failure reports
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // echo the run for the CI log
		m := resultRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		lines[m[1]] = append(lines[m[1]], line)
		ns, _ := strconv.ParseFloat(m[2], 64)
		bop, _ := strconv.ParseFloat(m[3], 64)
		allocs, _ := strconv.ParseFloat(m[4], 64)
		// With -count N there are several lines per benchmark; keep the
		// best of each metric so one noisy run cannot fail the gate.
		if prev, ok := got[m[1]]; ok {
			ns = min(ns, prev.NsOp)
			bop = min(bop, prev.BOp)
			allocs = min(allocs, prev.AllocsOp)
		}
		got[m[1]] = measurement{NsOp: ns, BOp: bop, AllocsOp: allocs}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	failed := false
	for _, name := range base.Guard.Benchmarks {
		entry, ok := base.Benchmarks[name]
		if !ok || entry.After == nil {
			fmt.Fprintf(os.Stderr, "benchguard: %s has no baseline 'after' entry\n", name)
			failed = true
			continue
		}
		cur, ok := got[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from the benchmark run\n", name)
			failed = true
			continue
		}
		want := entry.After
		ok = true
		if cur.AllocsOp > want.AllocsOp {
			fmt.Fprintf(os.Stderr, "benchguard: %s allocates %.0f allocs/op, baseline %.0f (exact gate)\n",
				name, cur.AllocsOp, want.AllocsOp)
			failed, ok = true, false
		}
		if limit := want.NsOp * factor; cur.NsOp > limit {
			fmt.Fprintf(os.Stderr, "benchguard: %s took %.1f ns/op, over %.1f (baseline %.1f x factor %.2f)\n",
				name, cur.NsOp, limit, want.NsOp, factor)
			failed, ok = true, false
		}
		if !ok {
			// Show the offending benchmark before/after: the committed
			// baseline measurement and every raw result line from this run.
			fmt.Fprintf(os.Stderr, "benchguard: %s before: %.1f ns/op  %.0f B/op  %.0f allocs/op (baseline)\n",
				name, want.NsOp, want.BOp, want.AllocsOp)
			for _, line := range lines[name] {
				fmt.Fprintf(os.Stderr, "benchguard: %s after:  %s\n", name, line)
			}
		}
		if ok {
			fmt.Printf("benchguard: %-28s %10.1f ns/op (baseline %10.1f) %6.0f allocs/op (baseline %.0f) ok\n",
				name, cur.NsOp, want.NsOp, cur.AllocsOp, want.AllocsOp)
		}
	}
	if failed {
		os.Exit(1)
	}
}
