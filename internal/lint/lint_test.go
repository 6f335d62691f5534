package lint_test

import (
	"testing"

	"fedprophet/internal/lint"
	"fedprophet/internal/lint/linttest"
)

func TestAtomicField(t *testing.T) {
	linttest.Run(t, "testdata", "./src/atomicfield", lint.Analyzers())
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, "testdata", "./src/lockorder", lint.Analyzers())
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata", "./src/determinism", lint.Analyzers())
}

func TestSentinelErr(t *testing.T) {
	linttest.Run(t, "testdata", "./src/sentinelerr", lint.Analyzers())
}

func TestPoolLeak(t *testing.T) {
	linttest.Run(t, "testdata", "./src/poolleak", lint.Analyzers())
}

func TestUnusedExport(t *testing.T) {
	linttest.Run(t, "testdata", "./src/unusedexport/...", lint.Analyzers())
}

func TestIgnoreDirectiveHygiene(t *testing.T) {
	linttest.Run(t, "testdata", "./src/directives", lint.Analyzers())
}

// TestModuleClean is the smoke test the CI lint target mirrors: the full
// analyzer suite over the whole module and the nested bench module, loaded as
// one program so the benchmark's references count, must come back without a
// finding.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	pkgs, err := lint.Load("../../bench", "fedprophet/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
