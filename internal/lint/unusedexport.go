package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnusedExportAnalyzer keeps the module free of dead exports: an exported
// top-level func, type, var or const — or an exported method of an exported
// type — declared in an internal/ package must be referenced by some non-test
// file of the program. An internal package is importable only from inside its
// module tree, so once every importer is loaded in the same pass the question
// is decidable; `make lint` loads the root module and the nested bench module
// together (from bench/: fplint fedprophet/...), so the benchmark's uses
// count.
//
// A method that implements an interface the program can see — declared in
// the module or in any package it imports, fmt.Stringer and error included —
// is exempt: it is reached through the interface, not by name. pkg/ packages
// are the public API and are never checked.
var UnusedExportAnalyzer = &Analyzer{
	Name: "unusedexport",
	Doc:  "flags exported identifiers of internal/ packages that no non-test file of the loaded program references",
	Run:  runUnusedExport,
}

// program is the set of packages one Load type-checked: the scope in which
// unusedexport resolves references, indexed on first use.
type program struct {
	pkgs []*Package
	// used holds the objKey of every object some non-test file references.
	used map[string]bool
	// ifaces maps a method name to the method sets (name → sigKey) of every
	// interface declaring it.
	ifaces map[string][]map[string]string
}

func runUnusedExport(pass *Pass) error {
	prog, pkg := pass.Pkg.program, pass.Pkg
	if !strings.Contains("/"+pkg.Types.Path()+"/", "/internal/") {
		return nil
	}
	if prog.used == nil {
		prog.index()
	}
	check := func(id *ast.Ident, kind string) {
		if !id.IsExported() {
			return
		}
		obj := pkg.Info.Defs[id]
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			named := recvNamed(fn.Signature().Recv().Type())
			if named == nil || !named.Obj().Exported() || prog.used[objKey(obj)] ||
				prog.implementsInterface(named, fn.Name()) {
				return
			}
			pass.Reportf(id.Pos(), "exported method %s.%s is referenced by no non-test file; delete it or unexport it",
				named.Obj().Name(), id.Name)
			return
		}
		if obj != nil && !prog.used[objKey(obj)] {
			pass.Reportf(id.Pos(), "exported %s %s is referenced by no non-test file; delete it or unexport it", kind, id.Name)
		}
	}
	for _, f := range pkg.Files {
		if pkg.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(d.Name, "func")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							check(n, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil
}

// index records every reference made from a non-test file and every
// interface visible to the program.
func (p *program) index() {
	p.used = map[string]bool{}
	p.ifaces = map[string][]map[string]string{}
	p.addInterface(types.Universe.Lookup("error").Type())
	addScope := func(tp *types.Package) {
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				p.addInterface(tn.Type())
			}
		}
	}
	// The loaded packages first: a package read from export data may list
	// only some of its imports, so the source-checked copies, whose imports
	// are complete, must win.
	seen := map[string]bool{}
	for _, pkg := range p.pkgs {
		seen[pkg.Types.Path()] = true
		addScope(pkg.Types)
	}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp.Path()] {
			return
		}
		seen[tp.Path()] = true
		addScope(tp)
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range p.pkgs {
		for _, imp := range pkg.Types.Imports() {
			visit(imp)
		}
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := pkg.Info.Uses[id]; obj != nil {
						p.used[objKey(obj)] = true
					}
				}
				return true
			})
		}
	}
}

// addInterface indexes t's methods if t is a non-empty interface.
func (p *program) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	ms := map[string]string{}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		ms[m.Name()] = sigKey(m.Signature())
	}
	for name := range ms {
		p.ifaces[name] = append(p.ifaces[name], ms)
	}
}

// implementsInterface reports whether the method set of *named covers some
// indexed interface that declares method. Signatures are compared as
// strings, since each package was type-checked against its own copy of the
// packages it imports.
func (p *program) implementsInterface(named *types.Named, method string) bool {
	have := map[string]string{}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj().(*types.Func)
		have[fn.Name()] = sigKey(fn.Signature())
	}
	for _, iface := range p.ifaces[method] {
		covered := true
		for name, sig := range iface {
			if have[name] != sig {
				covered = false
				break
			}
		}
		if covered {
			return true
		}
	}
	return false
}

// objKey names a package-level object or method independently of which
// type-check produced it: "path.Name" or "path.Type.Method". Struct fields
// and local objects map to "".
func objKey(obj types.Object) string {
	if obj.Pkg() == nil || obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Signature().Recv(); recv != nil {
			named := recvNamed(recv.Type())
			if named == nil {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named type of a method receiver, through a pointer.
func recvNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// sigKey renders a signature's parameter and result types without names.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		for i := 0; i < t.Len(); i++ {
			b.WriteString(types.TypeString(t.At(i).Type(), nil))
			b.WriteByte(',')
		}
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteByte('|')
	tuple(sig.Results())
	return b.String()
}
