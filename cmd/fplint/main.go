// Command fplint machine-checks the repository's concurrency and determinism
// invariants (docs/ARCHITECTURE.md, "Static analysis"): atomicfield,
// lockorder, determinism, sentinelerr, poolleak and unusedexport, with
// //lint:ignore hygiene enforced by the runner.
//
// Two modes share one engine (internal/lint):
//
//	cd bench && fplint fedprophet/...          # standalone, both modules
//	go vet -vettool=$(pwd)/bin/fplint ./...   # driven by the go command
//
// Standalone mode resolves the patterns itself via `go list -export` and
// analyzes every matched package as one program: unusedexport counts
// references among the loaded packages only, so load everything that imports
// internal/ — from bench/, fedprophet/... covers the root module and the
// nested bench module. Vet-tool mode sees one package at a time, so
// unusedexport reports nothing there; it speaks cmd/go's unitchecker
// protocol: -V=full prints the version for build caching, -flags advertises
// no extra flags, and otherwise the single argument is a *.cfg JSON file
// describing one package (sources, import map, export data) prepared by the
// go command.
//
// Exit status: 0 clean, 1 findings, 2 operational failure.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"fedprophet/internal/lint"
)

// version is the cache key `go vet` uses to decide whether prior results are
// still valid; bump it when analyzer behavior changes.
const version = "fplint-2"

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		fmt.Printf("fplint version %s\n", version)
		return
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
		return
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(runVet(args[0]))
	default:
		os.Exit(runStandalone(args))
	}
}

// runStandalone resolves the patterns (default ./...) and analyzes them all.
func runStandalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, lint.Analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			exit = 1
		}
	}
	return exit
}

// vetConfig is the subset of cmd/go's unitchecker *.cfg fields fplint needs.
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVet analyzes the one package described by the go command's cfg file.
func runVet(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "fplint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// The go command expects the facts file regardless; fplint carries no
	// cross-package facts, so an empty one satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	pkg := &lint.Package{
		PkgPath: cfg.ImportPath,
		Module:  moduleOf(cfg.ImportPath),
		Fset:    fset,
	}
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		files = append(files, f)
		if strings.HasSuffix(name, "_test.go") {
			pkg.MarkTestFile(f)
		}
	}
	pkg.Files = files
	if len(files) > 0 {
		pkg.Dir = filepath.Dir(fset.Position(files[0].Pos()).Filename)
	}
	tpkg, info, err := lint.Check(fset, cfg.ImportPath, files, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkg.Types = tpkg
	pkg.Info = info

	diags, err := lint.RunPackage(pkg, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// moduleOf guesses the module path for in-module detection: the go command's
// cfg does not carry it, and for this repository the import path's first
// element is the module.
func moduleOf(importPath string) string {
	if i := strings.IndexByte(importPath, '/'); i >= 0 {
		return importPath[:i]
	}
	return importPath
}
