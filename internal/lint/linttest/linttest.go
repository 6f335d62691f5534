// Package linttest runs fplint analyzers over fixture packages and checks
// their diagnostics against expectations written in the fixtures themselves,
// in the style of golang.org/x/tools' analysistest (which this module does
// not depend on):
//
//	err == ErrStale // want `ErrStale compared with ==`
//
// A want comment expects one diagnostic on its own line whose message matches
// the regexp; several patterns may follow one want. Block comments work too —
// /* want `...` */ placed before a line comment under test — which is how the
// //lint:ignore hygiene diagnostics are asserted, since those lines' trailing
// comment position is already taken by the directive being tested.
//
// Every diagnostic must be expected and every expectation must fire; either
// direction of mismatch fails the test.
package linttest

import (
	"regexp"
	"strings"
	"testing"

	"fedprophet/internal/lint"
)

type expectation struct {
	re   *regexp.Regexp
	used bool
}

type posKey struct {
	file string
	line int
}

// Run loads the fixture package matched by pattern under dir, runs the given
// analyzers, and matches diagnostics against the fixtures' want comments.
//
//lint:ignore unusedexport this package exists for the lint package's tests
func Run(t *testing.T, dir, pattern string, analyzers []*lint.Analyzer) {
	t.Helper()
	pkgs, err := lint.Load(dir, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages match %s under %s", pattern, dir)
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		wants := collectWants(t, pkg)
		for _, d := range diags {
			key := posKey{d.Pos.Filename, d.Pos.Line}
			matched := false
			for _, w := range wants[key] {
				if !w.used && w.re.MatchString(d.Message) {
					w.used = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		}
		for key, ws := range wants {
			for _, w := range ws {
				if !w.used {
					t.Errorf("%s:%d: want %q matched no diagnostic", key.file, key.line, w.re)
				}
			}
		}
	}
}

// wantArg matches one expectation pattern: `...` or "..." (with escapes).
var wantArg = regexp.MustCompile("^\\s*(?:`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\")")

// collectWants parses every want comment in the package's files.
func collectWants(t *testing.T, pkg *lint.Package) map[posKey][]*expectation {
	t.Helper()
	wants := map[posKey][]*expectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if strings.HasPrefix(text, "//") {
					text = text[2:]
				} else if strings.HasPrefix(text, "/*") {
					text = strings.TrimSuffix(text[2:], "*/")
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey{pos.Filename, pos.Line}
				for {
					m := wantArg.FindStringSubmatch(rest)
					if m == nil {
						break
					}
					pat := m[1]
					if m[2] != "" || (pat == "" && strings.Contains(m[0], "\"")) {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
					rest = rest[len(m[0]):]
				}
			}
		}
	}
	return wants
}
