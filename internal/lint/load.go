package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader resolves package patterns through the go command and type-checks
// the matched packages from source, importing every dependency from the
// compiler's export data (`go list -export` materializes it in the build
// cache and reports the file paths). That keeps fplint dependency-free — the
// whole analysis stack is the standard library — and offline: nothing is
// downloaded, the go command only reads the module cache and GOROOT.

// Package is one type-checked package ready for analysis: the parsed files
// (comments included — the directive and ignore machinery needs them), the
// type-checker's object resolution, and enough module identity for analyzers
// that distinguish "ours" from imported code.
type Package struct {
	// PkgPath is the import path as listed; a test variant keeps go list's
	// bracketed form ("p [p.test]") so it never collides with the plain one.
	PkgPath string
	// Module is the module path the package belongs to ("" if unknown).
	Module string
	// Dir is the package directory on disk.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// testFiles marks which of Files are _test.go sources.
	testFiles map[*ast.File]bool
	// program is every package type-checked by the same Load; nil for a
	// package built by hand (unusedexport then has nothing to resolve in).
	program *program
}

// IsTestFile reports whether f is one of the package's _test.go sources.
func (p *Package) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// MarkTestFile records f as a _test.go source; used by loaders that build a
// Package by hand (cmd/fplint's vet-tool mode) instead of through Load.
func (p *Package) MarkTestFile(f *ast.File) {
	if p.testFiles == nil {
		p.testFiles = map[*ast.File]bool{}
	}
	p.testFiles[f] = true
}

// listedPkg is the subset of `go list -json` fields the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Module     *struct{ Path string }
	Export     string
	DepOnly    bool
	Standard   bool
	ForTest    string
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load lists patterns in dir (module mode, tests included) and returns the
// matched packages type-checked. When a package has in-package test files,
// only its test variant is returned — it is a superset of the plain build, so
// analyzing both would double every diagnostic in the non-test files. The
// returned packages form one program: the scope unusedexport resolves
// references in.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := []string{
		"list", "-e", "-test", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Module,Export,DepOnly,Standard,ForTest,GoFiles,ImportMap,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.Bytes())
	}

	exports := map[string]string{} // listed ImportPath → export data file
	var targets []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}

	// A test variant ("p [p.test]") subsumes the plain package's files.
	variantOf := map[string]bool{}
	for _, t := range targets {
		if t.ForTest != "" && strings.HasPrefix(t.ImportPath, t.ForTest+" ") {
			variantOf[t.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, t := range targets {
		if variantOf[t.ImportPath] {
			continue
		}
		pkg, err := typecheck(fset, t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	prog := &program{pkgs: pkgs}
	for _, pkg := range pkgs {
		pkg.program = prog
	}
	return pkgs, nil
}

// typecheck parses and type-checks one listed package against export data.
func typecheck(fset *token.FileSet, t listedPkg, exports map[string]string) (*Package, error) {
	pkg := &Package{
		PkgPath:   t.ImportPath,
		Dir:       t.Dir,
		Fset:      fset,
		testFiles: map[*ast.File]bool{},
	}
	if t.Module != nil {
		pkg.Module = t.Module.Path
	}
	for _, name := range t.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(t.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
		if strings.HasSuffix(name, "_test.go") {
			pkg.testFiles[f] = true
		}
	}
	// Strip go list's variant suffix: the type-checker wants the real path.
	typePath := t.ImportPath
	if i := strings.IndexByte(typePath, ' '); i >= 0 {
		typePath = typePath[:i]
	}
	tpkg, info, err := Check(fset, typePath, pkg.Files, t.ImportMap, exports)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %v", t.ImportPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// Check type-checks the parsed files of one package, resolving every import
// through export data files: importMap translates source import strings to
// listed package keys (test variants), exportFiles maps those keys to the
// compiler export data on disk. Shared by the loader and cmd/fplint's
// `go vet -vettool` mode, whose .cfg hands it the same two maps.
func Check(fset *token.FileSet, pkgPath string, files []*ast.File,
	importMap, exportFiles map[string]string) (*types.Package, *types.Info, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		f, ok := exportFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}
