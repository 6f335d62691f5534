// Package lint is fplint's analysis engine: a dependency-free equivalent of
// the golang.org/x/tools go/analysis framework, carrying the custom analyzers
// that machine-check this repository's concurrency and determinism
// invariants (docs/ARCHITECTURE.md, "Static analysis"):
//
//   - atomicfield: a variable or field ever accessed through sync/atomic is
//     atomic everywhere — no plain reads or writes (the "all-atomic /stats"
//     rule in mechanical form).
//   - lockorder: mutex acquisitions respect the canonical lock hierarchy,
//     declared once in the code under //lint:lockorder.
//   - determinism: packages marked //lint:deterministic neither read the
//     wall clock, the global math/rand source or the environment, nor
//     serialize map iterations into order-dependent state without a sort.
//   - sentinelerr: module error sentinels are matched with errors.Is, never
//     == or !=.
//   - poolleak: every sync.Pool.Get has a Put or an ownership transfer on
//     every return path.
//   - unusedexport: every export of an internal/ package is referenced by a
//     non-test file somewhere in the program loaded with it.
//
// A justified exception is annotated at the offending line (or the line
// above) as:
//
//	//lint:ignore <analyzer> <reason>
//
// The runner enforces the annotation's hygiene: the reason must be
// non-empty, the analyzer name must exist, and the annotation must actually
// suppress a finding — deleting the code it excused turns the stale
// annotation itself into a build break.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one invariant checker. Run inspects a single type-checked
// package through the Pass and reports findings; analyzers keep no state
// between packages.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass carries one package's worth of analysis input to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding, position resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full fplint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicFieldAnalyzer,
		LockOrderAnalyzer,
		DeterminismAnalyzer,
		SentinelErrAnalyzer,
		PoolLeakAnalyzer,
		UnusedExportAnalyzer,
	}
}

// ignoreDirective is one parsed //lint:ignore annotation.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

// RunPackage runs the given analyzers over one package and returns the
// surviving diagnostics: findings suppressed by a matching //lint:ignore on
// their own line or the line directly above are dropped, and the ignore
// annotations themselves are audited (empty reason, unknown analyzer, or an
// annotation suppressing nothing are each findings in their own right).
// Diagnostics come back sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{Analyzer: a, Pkg: pkg}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
		raw = append(raw, pass.diags...)
	}

	directives := collectIgnores(pkg)
	var out []Diagnostic
	for _, d := range raw {
		suppressed := false
		for _, ig := range directives {
			if ig.analyzer != d.Analyzer || ig.pos.Filename != d.Pos.Filename {
				continue
			}
			if ig.pos.Line == d.Pos.Line || ig.pos.Line == d.Pos.Line-1 {
				ig.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, ig := range directives {
		switch {
		case ig.analyzer == "" || ig.reason == "":
			out = append(out, Diagnostic{Pos: ig.pos, Analyzer: "lintdirective",
				Message: "lint:ignore needs an analyzer name and a non-empty reason: //lint:ignore <analyzer> <reason>"})
		case !known[ig.analyzer]:
			out = append(out, Diagnostic{Pos: ig.pos, Analyzer: "lintdirective",
				Message: fmt.Sprintf("lint:ignore names unknown analyzer %q", ig.analyzer)})
		case !ig.used:
			out = append(out, Diagnostic{Pos: ig.pos, Analyzer: "lintdirective",
				Message: fmt.Sprintf("lint:ignore for %q suppresses nothing — remove the stale annotation", ig.analyzer)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// collectIgnores parses every //lint:ignore annotation in the package.
func collectIgnores(pkg *Package) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				ig := &ignoreDirective{pos: pkg.Fset.Position(c.Pos())}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					ig.analyzer = fields[0]
				}
				if len(fields) > 1 {
					ig.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, ig)
			}
		}
	}
	return out
}

// directive scans the package for a //lint:<name> marker (optionally
// followed by free text) and returns the remainder of the first match.
func directive(pkg *Package, name string) (rest string, pos token.Pos, ok bool) {
	prefix := "//lint:" + name
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if r, found := strings.CutPrefix(c.Text, prefix); found &&
					(r == "" || r[0] == ' ' || r[0] == '\t') {
					return strings.TrimSpace(r), c.Pos(), true
				}
			}
		}
	}
	return "", token.NoPos, false
}
