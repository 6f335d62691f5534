package exp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fedprophet/internal/device"
	"fedprophet/internal/fl"
	"fedprophet/internal/simlat"
)

func TestQuickAndFullScalesAreSane(t *testing.T) {
	for _, s := range []Scale{QuickScale(), FullScale()} {
		if s.TrainPerClass <= 0 || s.Rounds <= 0 || s.NumClients < s.ClientsPerRound {
			t.Fatalf("bad scale %+v", s)
		}
	}
	if FullScale().Rounds <= QuickScale().Rounds {
		t.Fatal("full scale must run longer than quick")
	}
	if TrimmedScale().Rounds >= QuickScale().Rounds {
		t.Fatal("trimmed scale must run shorter than quick")
	}
}

// Lookup resolves every listed name, to the scale, workload and
// heterogeneity of that name, and refuses an unknown one.
func TestLookupResolvesNamesAndRefusesUnknown(t *testing.T) {
	for _, sn := range ScaleNames() {
		for _, wn := range WorkloadNames() {
			for _, h := range []device.Heterogeneity{device.Balanced, device.Unbalanced} {
				s, w, gotH, err := Lookup(sn, wn, h.String())
				if err != nil {
					t.Fatalf("Lookup(%q, %q, %q): %v", sn, wn, h, err)
				}
				if s.Name != sn || gotH != h || (wn == "cifar") != (w.Name == "CIFAR10-S") {
					t.Fatalf("Lookup(%q, %q, %q) = %s, %s, %s", sn, wn, h, s.Name, w.Name, gotH)
				}
			}
		}
	}
	for _, bad := range [][3]string{
		{"galactic", "cifar", "balanced"},
		{"quick", "imagenet", "balanced"},
		{"quick", "cifar", "lopsided"},
		{"", "cifar", "balanced"},
	} {
		if _, _, _, err := Lookup(bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("Lookup(%q, %q, %q) accepted an unknown name", bad[0], bad[1], bad[2])
		}
	}
}

// Caltech256-S shapes follow the scale, and every consumer — Table 1, the
// commands and the public API — takes them from Caltech256S: 3×16×16 images
// of 8 classes below full scale, 3×24×24 of 32 at full scale, in the data and
// in the model alike.
func TestCaltechShapesFollowScale(t *testing.T) {
	for _, c := range []struct {
		s       Scale
		shape   []int
		classes int
	}{
		{TrimmedScale(), []int{3, 16, 16}, 8},
		{QuickScale(), []int{3, 16, 16}, 8},
		{FullScale(), []int{3, 24, 24}, 32},
	} {
		w := Caltech256S(c.s)
		cfg := w.DataCfg(c.s, 1)
		m := w.BuildLarge(c.s)(rand.New(rand.NewSource(1)))
		if !slices.Equal(w.Shape, c.shape) || !slices.Equal(cfg.Shape, c.shape) || !slices.Equal(m.InShape, c.shape) ||
			w.Classes != c.classes || cfg.Classes != c.classes || m.NumClasses != c.classes {
			t.Fatalf("%s scale: workload %v/%d, data %v/%d, model %v/%d; want %v/%d", c.s.Name,
				w.Shape, w.Classes, cfg.Shape, cfg.Classes, m.InShape, m.NumClasses, c.shape, c.classes)
		}
	}
}

func TestNewEnvWiresEverything(t *testing.T) {
	env := NewEnv(CIFAR10S(), QuickScale(), device.Balanced, 1)
	if env.Train.Len() == 0 || env.Test.Len() == 0 || env.Val.Len() == 0 || env.Public.Len() == 0 {
		t.Fatal("datasets missing")
	}
	if len(env.Subsets) != env.Cfg.NumClients {
		t.Fatalf("subsets %d, clients %d", len(env.Subsets), env.Cfg.NumClients)
	}
	total := 0
	for _, s := range env.Subsets {
		total += s.Len()
	}
	if total != env.Train.Len() {
		t.Fatal("partition does not cover the training set")
	}
}

func TestMethodsRosterMatchesPaper(t *testing.T) {
	ms := Methods(CIFAR10S(), QuickScale())
	if len(ms) != 8 {
		t.Fatalf("roster has %d methods, want 8", len(ms))
	}
	want := []string{"jFAT", "FedDF-AT", "FedET-AT", "HeteroFL-AT", "FedDrop-AT",
		"FedRolex-AT", "FedRBN", "FedProphet"}
	for i, m := range ms {
		if m.Name() != want[i] {
			t.Fatalf("method %d = %s, want %s", i, m.Name(), want[i])
		}
	}
}

func TestFigure2Shapes(t *testing.T) {
	rep := Figure2(CIFAR10S(), QuickScale(), 1)
	if len(rep.Rows) != 3 {
		t.Fatalf("Figure 2 needs 3 regimes, got %d", len(rep.Rows))
	}
	// "Lim. w/ Swap" must be dominated by data access; the others must have
	// zero data access.
	if rep.Rows[0][2] != "0.000" {
		t.Fatalf("Suff. Mem should have no data access: %v", rep.Rows[0])
	}
	if rep.Rows[1][2] == "0.000" {
		t.Fatalf("Lim. w/ Swap should have data access: %v", rep.Rows[1])
	}
	if rep.Rows[2][2] != "0.000" {
		t.Fatalf("Lim. w/o Swap should have no data access: %v", rep.Rows[2])
	}
}

func TestFigure6ReportsMemoryReduction(t *testing.T) {
	rep := Figure6(CIFAR10S(), QuickScale(), 1)
	found := false
	for _, row := range rep.Rows {
		if row[0] == "memory reduction" {
			found = true
			if !strings.HasSuffix(row[1], "%") {
				t.Fatalf("memory reduction not a percentage: %v", row[1])
			}
		}
	}
	if !found {
		t.Fatal("memory reduction row missing")
	}
}

func TestPartitionTableHasModules(t *testing.T) {
	rep := PartitionTable(CIFAR10S(), QuickScale(), 1)
	if len(rep.Rows) < 2 {
		t.Fatalf("partition should yield multiple modules, got %d", len(rep.Rows))
	}
}

func TestDeviceTablesVerbatim(t *testing.T) {
	reps := DeviceTable()
	if len(reps) != 2 {
		t.Fatal("need two device tables")
	}
	for _, r := range reps {
		if len(r.Rows) != 10 {
			t.Fatalf("%s has %d devices, want 10", r.ID, len(r.Rows))
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "T", Title: "x", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := r.String()
	if !strings.Contains(s, "== T: x ==") || !strings.Contains(s, "bb") {
		t.Fatalf("bad report rendering:\n%s", s)
	}
}

func TestTable2AndFigure7FromSharedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test")
	}
	// Run just jFAT + FedProphet end to end at a reduced quick scale; the
	// full roster is exercised by the benchmarks.
	w := CIFAR10S()
	s := QuickScale()
	s.TrainPerClass = 10
	s.TestPerClass = 4
	s.Rounds = 2
	s.RoundsPerModule = 1
	s.LocalIters = 2

	ms := Methods(w, s)
	results := []*fl.Result{
		runMethod(ms[0], NewEnv(w, s, device.Balanced, 3)),
		runMethod(ms[7], NewEnv(w, s, device.Balanced, 3)),
	}
	t2 := Table2(w, device.Balanced, results)
	if len(t2.Rows) != 2 || t2.Rows[0][0] != "jFAT" || t2.Rows[1][0] != "FedProphet" {
		t.Fatalf("Table 2 rows wrong: %v", t2.Rows)
	}
	f7 := Figure7(w, device.Balanced, results)
	if len(f7.Rows) != 2 {
		t.Fatalf("Figure 7 rows wrong: %v", f7.Rows)
	}
	// jFAT's speedup against itself is 1.0x.
	if f7.Rows[0][4] != "1.0x" {
		t.Fatalf("jFAT speedup should be 1.0x, got %v", f7.Rows[0][4])
	}
}

func TestTable3AndTable4FromSharedAblation(t *testing.T) {
	// Synthetic results in RunAblation's order: APA/DMA on/on, off/on,
	// on/off, off/off. Table 4 is the two APA-on rows of Table 3.
	var results []*fl.Result
	for i, acc := range []float64{0.5, 0.4, 0.3, 0.2} {
		results = append(results, &fl.Result{
			CleanAcc: acc, PGDAcc: acc / 2,
			Latency: simlat.Latency{Compute: float64(i + 1), DataAccess: 0.25},
		})
	}
	w := CIFAR10S()
	t3 := Table3(w, device.Unbalanced, results)
	want3 := "== Table 3: APA/DMA ablation, CIFAR10-S, unbalanced ==\n" +
		"APA  DMA  Clean Acc.  Adv Acc.  Total time (s)  \n" +
		"yes  yes  50.00%      25.00%    1.250           \n" +
		"no   yes  40.00%      20.00%    2.250           \n" +
		"yes  no   30.00%      15.00%    3.250           \n" +
		"no   no   20.00%      10.00%    4.250           \n"
	if got := t3.String(); got != want3 {
		t.Fatalf("Table 3:\n%s\nwant:\n%s", got, want3)
	}
	t4 := Table4(w, device.Unbalanced, results)
	want4 := "== Table 4: Training time with/without DMA, CIFAR10-S, unbalanced ==\n" +
		"Setting  Total time (s)  \n" +
		"w/ DMA   1.250           \n" +
		"w/o DMA  3.250           \n"
	if got := t4.String(); got != want4 {
		t.Fatalf("Table 4:\n%s\nwant:\n%s", got, want4)
	}
}
