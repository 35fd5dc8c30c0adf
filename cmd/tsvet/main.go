// Command tsvet is the repo's static-analysis gate: it runs the
// standard `go vet` suite plus the three custom analyzers that enforce
// the simulator's load-bearing invariants —
//
//	allocfree      zero-allocation hot-path scheduling
//	determinism    byte-identical reproducibility of the simulation core
//	canonicalspec  spec.Spec canonical-JSON key stability
//
// Usage:
//
//	go run ./cmd/tsvet ./...
//
// tsvet exits non-zero on any diagnostic from either suite, so CI needs
// exactly one static-analysis job. -novet skips the go vet half (useful
// when iterating on one analyzer).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"

	"tsnoop/internal/analysis"
	"tsnoop/internal/analysis/allocfree"
	"tsnoop/internal/analysis/canonicalspec"
	"tsnoop/internal/analysis/determinism"
)

// Analyzers is the tsvet suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	allocfree.Analyzer,
	determinism.Analyzer,
	canonicalspec.Analyzer,
}

func main() {
	novet := flag.Bool("novet", false, "skip the standard `go vet` pass, run only the tsvet analyzers")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tsvet [-novet] [packages]\n\nAnalyzers:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if !*novet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Stdout = os.Stdout
		vet.Stderr = os.Stderr
		if err := vet.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintln(os.Stderr, "tsvet: go vet:", err)
				os.Exit(2)
			}
			failed = true
		}
	}

	diags, loader, err := analysis.Run("", Analyzers, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsvet:", err)
		os.Exit(2)
	}
	analysis.Print(os.Stderr, loader, diags)
	if failed || len(diags) > 0 {
		os.Exit(1)
	}
}
