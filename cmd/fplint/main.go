// Command fplint machine-checks the repository's concurrency and determinism
// invariants (docs/ARCHITECTURE.md, "Static analysis"): atomicfield,
// lockorder, determinism, sentinelerr, poolleak and unusedexport, with
// //lint:ignore hygiene enforced by the runner.
//
//	cd bench && fplint fedprophet/...
//
// fplint resolves the patterns (default ./...) itself via `go list -export`
// and analyzes every matched package as one program: unusedexport counts
// references among the loaded packages only, so load everything that imports
// internal/ — from bench/, fedprophet/... covers the root module and the
// nested bench module.
//
// Exit status: 0 clean, 1 findings, 2 operational failure.
package main

import (
	"fmt"
	"os"

	"fedprophet/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, lint.Analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			exit = 1
		}
	}
	os.Exit(exit)
}
