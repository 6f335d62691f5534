package nn

import (
	"fmt"
	"math/rand"

	"fedprophet/internal/tensor"
)

// Model is a backbone network expressed as an ordered list of "atoms" — the
// indivisible units of FedProphet's model partitioner (§6.1): a single
// conv/linear layer group for plain networks, a residual block for ResNets.
// Model itself satisfies Layer, so it can be trained end-to-end (jFAT) or
// sliced into cascaded modules (FedProphet).
type Model struct {
	Label      string
	Atoms      []Layer
	InShape    []int // per-sample input shape (C,H,W)
	NumClasses int
}

// Forward threads the input through every atom.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, a := range m.Atoms {
		x = a.Forward(x, train)
	}
	return x
}

// Backward runs the atoms' backward passes in reverse.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Atoms) - 1; i >= 0; i-- {
		grad = m.Atoms[i].Backward(grad)
	}
	return grad
}

// Params concatenates all atoms' parameters.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, a := range m.Atoms {
		ps = append(ps, a.Params()...)
	}
	return ps
}

// OutShape threads the per-sample shape through every atom.
func (m *Model) OutShape(in []int) []int {
	for _, a := range m.Atoms {
		in = a.OutShape(in)
	}
	return in
}

// ForwardFLOPs sums all atoms' forward costs.
func (m *Model) ForwardFLOPs(in []int) int64 {
	var total int64
	for _, a := range m.Atoms {
		total += a.ForwardFLOPs(in)
		in = a.OutShape(in)
	}
	return total
}

// Name returns the model label.
func (m *Model) Name() string { return m.Label }

// ExportParams flattens all parameter values into a single vector, in a
// stable order. Used to ship local updates to the server.
func ExportParams(l Layer) []float64 { return ExportParamList(l.Params()) }

// ImportParams loads a vector produced by ExportParams back into the layer.
func ImportParams(l Layer, v []float64) { ImportParamList(l.Params(), v) }

// ExportParamList flattens a parameter list into one vector, in list order.
func ExportParamList(ps []*Param) []float64 {
	n := 0
	for _, p := range ps {
		n += p.Data.Len()
	}
	out := make([]float64, 0, n)
	for _, p := range ps {
		out = append(out, p.Data.Data...)
	}
	return out
}

// ImportParamList loads a vector produced by ExportParamList back into the
// parameter list.
func ImportParamList(ps []*Param, v []float64) {
	off := 0
	for _, p := range ps {
		n := p.Data.Len()
		if off+n > len(v) {
			panic("nn: ImportParams vector too short")
		}
		copy(p.Data.Data, v[off:off+n])
		off += n
	}
	if off != len(v) {
		panic(fmt.Sprintf("nn: ImportParams vector length %d, consumed %d", len(v), off))
	}
}

// convAtom builds a conv(3×3, pad 1) + batchnorm + ReLU atom, optionally
// followed by a 2×2 max pool.
func convAtom(label string, inC, outC int, pool bool, rng *rand.Rand) Layer {
	layers := []Layer{
		NewConv2D(inC, outC, 3, 1, 1, false, rng),
		NewBatchNorm2D(outC),
		NewReLU(),
	}
	if pool {
		layers = append(layers, NewMaxPool2D(2))
	}
	return NewSequential(label, layers...)
}

// linearAtom builds a linear layer atom with optional ReLU.
func linearAtom(label string, in, out int, relu bool, rng *rand.Rand) Layer {
	layers := []Layer{NewLinear(in, out, rng)}
	if relu {
		layers = append(layers, NewReLU())
	}
	return NewSequential(label, layers...)
}

// NewBasicBlock builds a ResNet basic block in→out channels with the given
// stride on the first convolution. A 1×1 projection is added on the skip
// path whenever the stride or channel count changes.
func NewBasicBlock(inC, outC, stride int, rng *rand.Rand) *BasicBlock {
	b := &BasicBlock{
		Conv1: NewConv2D(inC, outC, 3, stride, 1, false, rng),
		BN1:   NewBatchNorm2D(outC),
		Conv2: NewConv2D(outC, outC, 3, 1, 1, false, rng),
		BN2:   NewBatchNorm2D(outC),
		relu:  NewReLU(),
	}
	b.main = NewSequential("main", b.Conv1, b.BN1, NewReLU(), b.Conv2, b.BN2)
	if stride != 1 || inC != outC {
		b.DownConv = NewConv2D(inC, outC, 1, stride, 0, false, rng)
		b.DownBN = NewBatchNorm2D(outC)
		b.skip = NewSequential("skip", b.DownConv, b.DownBN)
	}
	return b
}

// VGG16S builds the scaled VGG16 used on CIFAR10-S: 13 convolution atoms in
// the VGG16 topology (pools after convs 2, 4, 7 and 10) and 3 linear atoms,
// with base width w. For the default w=8 and a 3×16×16 input the final
// feature map is 8w×1×1.
func VGG16S(inShape []int, classes, w int, rng *rand.Rand) *Model {
	plan := []struct {
		out  int
		pool bool
	}{
		{w, false}, {w, true},
		{2 * w, false}, {2 * w, true},
		{4 * w, false}, {4 * w, false}, {4 * w, true},
		{8 * w, false}, {8 * w, false}, {8 * w, true},
		{8 * w, false}, {8 * w, false}, {8 * w, false},
	}
	atoms := make([]Layer, 0, 16)
	inC := inShape[0]
	for i, p := range plan {
		atoms = append(atoms, convAtom(fmt.Sprintf("conv%d", i+1), inC, p.out, p.pool, rng))
		inC = p.out
	}
	// Spatial size after 4 pools.
	h := inShape[1] / 16
	wid := inShape[2] / 16
	feat := inC * h * wid
	atoms = append(atoms,
		NewSequential("fc1", NewFlatten(), NewLinear(feat, 4*w, rng), NewReLU()),
		linearAtom("fc2", 4*w, 4*w, true, rng),
		linearAtom("fc3", 4*w, classes, false, rng),
	)
	return &Model{Label: "VGG16-S", Atoms: atoms, InShape: append([]int(nil), inShape...), NumClasses: classes}
}

// vggVariant builds smaller VGG-family models for the KD baselines' model
// groups. convPlan entries are output widths; pool marks pooling positions.
func vggVariant(label string, inShape []int, classes, w int, plan []struct {
	out  int
	pool bool
}, pools int, rng *rand.Rand) *Model {
	atoms := make([]Layer, 0, len(plan)+3)
	inC := inShape[0]
	for i, p := range plan {
		atoms = append(atoms, convAtom(fmt.Sprintf("conv%d", i+1), inC, p.out, p.pool, rng))
		inC = p.out
	}
	div := 1 << pools
	feat := inC * (inShape[1] / div) * (inShape[2] / div)
	atoms = append(atoms,
		NewSequential("fc1", NewFlatten(), NewLinear(feat, 4*w, rng), NewReLU()),
		linearAtom("fc2", 4*w, classes, false, rng),
	)
	return &Model{Label: label, Atoms: atoms, InShape: append([]int(nil), inShape...), NumClasses: classes}
}

// VGG11S builds an 8-conv scaled VGG11.
func VGG11S(inShape []int, classes, w int, rng *rand.Rand) *Model {
	plan := []struct {
		out  int
		pool bool
	}{
		{w, true}, {2 * w, true}, {4 * w, false}, {4 * w, true},
		{8 * w, false}, {8 * w, true}, {8 * w, false}, {8 * w, false},
	}
	return vggVariant("VGG11-S", inShape, classes, w, plan, 4, rng)
}

// VGG13S builds a 10-conv scaled VGG13.
func VGG13S(inShape []int, classes, w int, rng *rand.Rand) *Model {
	plan := []struct {
		out  int
		pool bool
	}{
		{w, false}, {w, true}, {2 * w, false}, {2 * w, true},
		{4 * w, false}, {4 * w, true}, {8 * w, false}, {8 * w, true},
		{8 * w, false}, {8 * w, false},
	}
	return vggVariant("VGG13-S", inShape, classes, w, plan, 4, rng)
}

// CNN3 is the paper's small CIFAR-10 model: three conv atoms and a linear
// classifier (Table 1, "Small (1×)").
func CNN3(inShape []int, classes, w int, rng *rand.Rand) *Model {
	atoms := []Layer{
		convAtom("conv1", inShape[0], w, true, rng),
		convAtom("conv2", w, 2*w, true, rng),
		convAtom("conv3", 2*w, 4*w, true, rng),
	}
	feat := 4 * w * (inShape[1] / 8) * (inShape[2] / 8)
	atoms = append(atoms, NewSequential("fc", NewFlatten(), NewLinear(feat, classes, rng)))
	return &Model{Label: "CNN3", Atoms: atoms, InShape: append([]int(nil), inShape...), NumClasses: classes}
}

// CNN4 is the paper's small Caltech-256 model: four conv atoms and a linear
// classifier.
func CNN4(inShape []int, classes, w int, rng *rand.Rand) *Model {
	atoms := []Layer{
		convAtom("conv1", inShape[0], w, true, rng),
		convAtom("conv2", w, 2*w, true, rng),
		convAtom("conv3", 2*w, 4*w, true, rng),
		convAtom("conv4", 4*w, 4*w, false, rng),
	}
	feat := 4 * w * (inShape[1] / 8) * (inShape[2] / 8)
	atoms = append(atoms, NewSequential("fc", NewFlatten(), NewLinear(feat, classes, rng)))
	return &Model{Label: "CNN4", Atoms: atoms, InShape: append([]int(nil), inShape...), NumClasses: classes}
}

// resNet builds a scaled ResNet with the given block counts per stage.
// Stage channels are w, 2w, 4w, 8w with stride-2 downsampling at the start
// of stages 2–4, mirroring ResNet34's structure at reduced width.
func resNet(label string, inShape []int, classes, w int, blocks [4]int, rng *rand.Rand) *Model {
	atoms := []Layer{
		NewSequential("conv1",
			NewConv2D(inShape[0], w, 3, 1, 1, false, rng),
			NewBatchNorm2D(w),
			NewReLU(),
		),
	}
	inC := w
	stageC := [4]int{w, 2 * w, 4 * w, 8 * w}
	blockID := 1
	for stage := 0; stage < 4; stage++ {
		for i := 0; i < blocks[stage]; i++ {
			stride := 1
			if stage > 0 && i == 0 {
				stride = 2
			}
			atoms = append(atoms, NewBasicBlock(inC, stageC[stage], stride, rng))
			inC = stageC[stage]
			blockID++
		}
	}
	atoms = append(atoms, NewSequential("head",
		NewGlobalAvgPool2D(),
		NewLinear(inC, classes, rng),
	))
	return &Model{Label: label, Atoms: atoms, InShape: append([]int(nil), inShape...), NumClasses: classes}
}

// ResNet34S builds the scaled ResNet34 used on Caltech256-S:
// 16 basic blocks arranged (3,4,6,3).
func ResNet34S(inShape []int, classes, w int, rng *rand.Rand) *Model {
	return resNet("ResNet34-S", inShape, classes, w, [4]int{3, 4, 6, 3}, rng)
}

// ResNet18S builds a (2,2,2,2) scaled ResNet18.
func ResNet18S(inShape []int, classes, w int, rng *rand.Rand) *Model {
	return resNet("ResNet18-S", inShape, classes, w, [4]int{2, 2, 2, 2}, rng)
}

// ResNet10S builds a (1,1,1,1) scaled ResNet10.
func ResNet10S(inShape []int, classes, w int, rng *rand.Rand) *Model {
	return resNet("ResNet10-S", inShape, classes, w, [4]int{1, 1, 1, 1}, rng)
}
