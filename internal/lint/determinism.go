package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the replayability contract: a package that marks
// itself deterministic with a //lint:deterministic comment promises that its
// outputs are a pure function of its inputs, so WAL replay, crash recovery,
// and cross-node aggregation all reconverge bit-for-bit. Three things break
// that silently:
//
//   - reading the wall clock (time.Now, time.Since) or the seeded-by-default
//     global math/rand source — each run sees different values;
//   - reading the environment (os.Getenv, os.LookupEnv, os.Environ) — a
//     process-global switch that two runs of the same call need not share;
//   - ranging over a map and folding the iteration into model or aggregate
//     state (accumulating into a variable, appending to a slice) — Go
//     randomizes map order per run, so the fold's result depends on it.
//
// Map iteration is fine when the body is order-insensitive (pure writes to
// distinct keys, commutative integer counting) or when the collected slice is
// sorted before anything consumes it; the analyzer recognizes a sort on the
// collected value in the same block and stays quiet. Deliberate
// nondeterminism — jitter, ID generation — is annotated at the call site with
// //lint:ignore determinism <why this cannot affect replay>.
//
// Test files are exempt: they assert on the results of determinism, they do
// not produce replayed state.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "flags wall-clock reads, global math/rand use, environment reads, and order-dependent map-iteration folds in packages marked //lint:deterministic",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if _, _, marked := directive(pass.Pkg, "deterministic"); !marked {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if pass.Pkg.IsTestFile(f) {
			continue
		}
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, info, n)
			case *ast.RangeStmt:
				checkMapRange(pass, info, n, stack)
			}
		})
	}
	return nil
}

// checkNondetCall flags direct sources of run-to-run variation.
func checkNondetCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := calleeObj(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		// Methods on an explicit *rand.Rand or a caller-supplied clock are the
		// sanctioned escape: the caller owns the seed/source.
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s in a deterministic package; thread a clock through the caller or annotate with //lint:ignore determinism <reason>",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "NewZipf", "NewChaCha8":
			// Constructing an explicitly-seeded source is how deterministic
			// code is supposed to get randomness.
			return
		}
		pass.Reportf(call.Pos(),
			"global %s.%s in a deterministic package; use an explicitly seeded *rand.Rand or annotate with //lint:ignore determinism <reason>",
			pathBase(fn.Pkg().Path()), fn.Name())
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			pass.Reportf(call.Pos(),
				"os.%s in a deterministic package; take the setting as an explicit parameter or annotate with //lint:ignore determinism <reason>",
				fn.Name())
		}
	}
}

// checkMapRange flags `for k, v := range m` bodies that fold the iteration
// into state whose value depends on visit order: compound accumulation into a
// variable declared outside the loop, or append onto an outer slice. A
// subsequent sort of the written variable in the enclosing block launders the
// order back out and suppresses the finding.
func checkMapRange(pass *Pass, info *types.Info, rng *ast.RangeStmt, stack []ast.Node) {
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	outer := func(obj types.Object) bool {
		return obj != nil && obj.Pos() != 0 &&
			!(rng.Pos() <= obj.Pos() && obj.Pos() < rng.End())
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if n != rng {
				return false // the inner range reports for itself
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				obj := rootObj(info, lhs)
				if !outer(obj) {
					continue
				}
				switch {
				case isOrderSensitiveOp(info, n, i):
					if !sortedAfter(info, rng, stack, obj) {
						pass.Reportf(n.Pos(),
							"map-range fold: %s accumulates across a randomized iteration order; collect and sort, or restructure the fold",
							obj.Name())
					}
				case isAppendFrom(info, n, i):
					if !sortedAfter(info, rng, stack, obj) {
						pass.Reportf(n.Pos(),
							"map-range fold: %s is appended to in randomized iteration order; sort it before use",
							obj.Name())
					}
				}
			}
		}
		return true
	})
}

// isOrderSensitiveOp reports whether assignment index i is a compound
// floating-point accumulation (+=, -=, *=, /=) — integer += is commutative
// and exact, but float accumulation is not associative, so iteration order
// leaks into the low bits of the result.
func isOrderSensitiveOp(info *types.Info, assign *ast.AssignStmt, i int) bool {
	switch assign.Tok.String() {
	case "+=", "-=", "*=", "/=":
	default:
		return false
	}
	if len(assign.Lhs) <= i {
		return false
	}
	tv, ok := info.Types[assign.Lhs[i]]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isAppendFrom reports whether Rhs[i] is append(lhs, ...).
func isAppendFrom(info *types.Info, assign *ast.AssignStmt, i int) bool {
	if len(assign.Rhs) <= i {
		return false
	}
	call, ok := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr)
	if !ok {
		return false
	}
	fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fid.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[fid].(*types.Builtin)
	return isBuiltin
}

// sortedAfter reports whether, in the block enclosing the range statement, a
// later statement sorts the object obj (sort.Slice, sort.Sort, sort.Strings,
// slices.Sort*, or a method named Sort) — the canonical collect-then-sort
// idiom that makes map iteration safe.
func sortedAfter(info *types.Info, rng *ast.RangeStmt, stack []ast.Node, obj types.Object) bool {
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	for _, stmt := range block.List {
		if stmt.Pos() <= rng.End() {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !isSortCall(info, call) {
				return true
			}
			if rootObj(info, call.Args[0]) == obj {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSortCall recognizes the standard sorting entry points.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeObj(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
		return false
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return fn.Name() == "Sort"
}

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
