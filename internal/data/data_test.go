package data

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func smallCfg(seed int64) SyntheticConfig {
	return SyntheticConfig{
		Name: "test", Classes: 4, Shape: []int{3, 8, 8},
		TrainPerClass: 25, TestPerClass: 5,
		NoiseStd: 0.1, MixMax: 0.3, Seed: seed,
	}
}

func TestGenerateShapesAndRanges(t *testing.T) {
	train, test := Generate(smallCfg(1))
	if train.Len() != 100 || test.Len() != 20 {
		t.Fatalf("sizes: train %d test %d", train.Len(), test.Len())
	}
	for _, x := range train.X {
		if x.Dim(0) != 3 || x.Dim(1) != 8 || x.Dim(2) != 8 {
			t.Fatalf("bad sample shape %v", x.Shape())
		}
		for _, v := range x.Data {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v outside [0,1]", v)
			}
		}
	}
	// Labels cover all classes.
	seen := map[int]bool{}
	for _, y := range train.Y {
		if y < 0 || y >= 4 {
			t.Fatalf("label %d out of range", y)
		}
		seen[y] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d classes present", len(seen))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(smallCfg(7))
	b, _ := Generate(smallCfg(7))
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.X[i].Data {
			if a.X[i].Data[j] != b.X[i].Data[j] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
	c, _ := Generate(smallCfg(8))
	same := true
	for j := range a.X[0].Data {
		if a.X[0].Data[j] != c.X[0].Data[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestClassesAreSeparated(t *testing.T) {
	// Mean intra-class distance should be well below mean inter-class
	// distance — otherwise the task would be unlearnable.
	train, _ := Generate(smallCfg(3))
	centroid := make([][]float64, 4)
	counts := make([]int, 4)
	dim := train.X[0].Len()
	for k := range centroid {
		centroid[k] = make([]float64, dim)
	}
	for i, x := range train.X {
		y := train.Y[i]
		counts[y]++
		for j, v := range x.Data {
			centroid[y][j] += v
		}
	}
	for k := range centroid {
		for j := range centroid[k] {
			centroid[k][j] /= float64(counts[k])
		}
	}
	dist := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	inter := 0.0
	n := 0
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			inter += dist(centroid[a], centroid[b])
			n++
		}
	}
	inter /= float64(n)
	intra := 0.0
	for i, x := range train.X {
		intra += dist(x.Data, centroid[train.Y[i]])
	}
	intra /= float64(train.Len())
	// Centroid spread must be a significant fraction of sample scatter.
	if inter < intra/20 {
		t.Fatalf("classes not separated: inter %g intra %g", inter, intra)
	}
}

func TestBatchStacksCorrectly(t *testing.T) {
	train, _ := Generate(smallCfg(2))
	x, y := Batch(train, []int{3, 7, 11})
	if x.Dim(0) != 3 || x.Dim(1) != 3 || x.Dim(2) != 8 || x.Dim(3) != 8 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if y[1] != train.Y[7] {
		t.Fatal("label order broken")
	}
	per := 3 * 8 * 8
	for j := 0; j < per; j++ {
		if x.Data[per+j] != train.X[7].Data[j] {
			t.Fatal("pixel data broken")
		}
	}
}

func TestBatchesCoverAndRespectSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := make([]int, 53)
	for i := range idx {
		idx[i] = i
	}
	bs := Batches(idx, 10, rng)
	seen := map[int]bool{}
	for _, b := range bs {
		if len(b) > 10 || len(b) < 2 {
			t.Fatalf("bad batch size %d", len(b))
		}
		for _, i := range b {
			if seen[i] {
				t.Fatal("duplicate index across batches")
			}
			seen[i] = true
		}
	}
	if len(seen) != 53 { // 53 = 5*10+3, final batch of 3 kept
		t.Fatalf("covered %d of 53", len(seen))
	}
}

func TestPartitionNonIIDBasicInvariants(t *testing.T) {
	train, _ := Generate(smallCfg(4))
	subs := PartitionNonIID(train, DefaultPartition(10, 99))
	if len(subs) != 10 {
		t.Fatalf("got %d subsets", len(subs))
	}
	seen := map[int]int{}
	total := 0
	for _, s := range subs {
		total += s.Len()
		for _, i := range s.Indices {
			seen[i]++
		}
	}
	if total != train.Len() {
		t.Fatalf("partition covers %d of %d samples", total, train.Len())
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d assigned %d times", i, c)
		}
	}
}

func TestPartitionNonIIDIsSkewed(t *testing.T) {
	cfg := SyntheticConfig{
		Name: "skew", Classes: 10, Shape: []int{1, 4, 4},
		TrainPerClass: 100, TestPerClass: 1,
		NoiseStd: 0.05, MixMax: 0.1, Seed: 5,
	}
	train, _ := Generate(cfg)
	subs := PartitionNonIID(train, DefaultPartition(20, 42))
	// With ClassFrac=0.2 → 2 majority classes per client; the top-2 classes
	// should hold roughly 80% of each client's data.
	low := 0
	for _, s := range subs {
		h := make([]int, train.NumClasses)
		for _, i := range s.Indices {
			h[train.Y[i]]++
		}
		sort.Sort(sort.Reverse(sort.IntSlice(h)))
		if float64(h[0]+h[1]) < 0.6*float64(len(s.Indices)) {
			low++
		}
	}
	if low > 4 {
		t.Fatalf("%d of 20 clients insufficiently skewed", low)
	}
}

func TestPartitionNonIIDProperty(t *testing.T) {
	train, _ := Generate(smallCfg(6))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 2
		subs := PartitionNonIID(train, DefaultPartition(n, seed))
		total := 0
		seen := map[int]bool{}
		for _, s := range subs {
			total += s.Len()
			for _, i := range s.Indices {
				if seen[i] || i < 0 || i >= train.Len() {
					return false
				}
				seen[i] = true
			}
		}
		return total == train.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitHoldout(t *testing.T) {
	train, _ := Generate(smallCfg(9))
	rem, hold := SplitHoldout(train, 0.1, 3)
	if hold.Len() != 10 || rem.Len() != 90 {
		t.Fatalf("sizes %d/%d", rem.Len(), hold.Len())
	}
	if rem.NumClasses != 4 || hold.NumClasses != 4 {
		t.Fatal("class count lost")
	}
}
