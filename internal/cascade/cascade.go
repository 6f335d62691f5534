// Package cascade implements FedProphet's robust and consistent cascade
// learning (paper §5 and §6.1): the partition of a backbone model into
// memory-bounded cascaded modules (Algorithm 1), the auxiliary linear output
// heads, the strongly-convex early-exit loss of Eq. (9), adversarial training
// on intermediate features, and the measurement of output-feature
// perturbations that drives Adaptive Perturbation Adjustment.
//
//lint:deterministic
package cascade

import (
	"fmt"
	"math"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/internal/memmodel"
	"fedprophet/internal/nn"
	"fedprophet/internal/tensor"
)

// Module is one cascaded slice of the backbone: a run of atoms plus, for all
// but the final module, an auxiliary fully connected output head θm
// (a single linear layer per §5.1 design (1), preserving convexity of the
// early-exit loss).
type Module struct {
	Index    int
	Atoms    []nn.Layer
	Aux      *nn.Sequential // flatten + linear; nil for the final module
	InShape  []int          // per-sample input feature shape
	OutShape []int          // per-sample output feature shape

	// params lists the atoms' parameters followed by the aux head's, built
	// once by Partition; the first nBackbone entries are the backbone's.
	params    []*nn.Param
	nBackbone int
}

// ForwardAtoms runs only the backbone atoms (not the aux head).
func (m *Module) ForwardAtoms(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, a := range m.Atoms {
		x = a.Forward(x, train)
	}
	return x
}

// BackwardAtoms back-propagates through the backbone atoms.
func (m *Module) BackwardAtoms(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Atoms) - 1; i >= 0; i-- {
		grad = m.Atoms[i].Backward(grad)
	}
	return grad
}

// Params returns the module's trainable parameters including the aux head.
// The slice is shared between calls and must not be modified.
func (m *Module) Params() []*nn.Param { return m.params }

// BackboneParams returns only the backbone atoms' parameters (what partial
// averaging aggregates into the global model). The slice is shared between
// calls and must not be modified.
func (m *Module) BackboneParams() []*nn.Param { return m.params[:m.nBackbone:m.nBackbone] }

// collectParams fills the parameter list once the module's atoms and aux
// head are final.
func (m *Module) collectParams() {
	for _, a := range m.Atoms {
		m.params = append(m.params, a.Params()...)
	}
	m.nBackbone = len(m.params)
	if m.Aux != nil {
		m.params = append(m.params, m.Aux.Params()...)
	}
	m.params = m.params[:len(m.params):len(m.params)]
}

// BNStats flattens the batch-norm running statistics of the module's atoms;
// the server aggregates these alongside the weights.
func (m *Module) BNStats() []float64 {
	var out []float64
	for _, a := range m.Atoms {
		out = append(out, nn.ExportBNStats(a)...)
	}
	return out
}

// SetBNStats restores a vector produced by BNStats.
func (m *Module) SetBNStats(v []float64) {
	off := 0
	for _, a := range m.Atoms {
		n := nn.NumBNStats(a)
		nn.ImportBNStats(a, v[off:off+n])
		off += n
	}
}

// MapFeatures runs every sample of in — a dataset of this module's input
// features — through the module's atoms in eval mode, batch samples at a time,
// and returns the dataset of its output features: X[i] is the module output
// for in.X[i] and labels are shared with in. With the module's weights fixed
// this is the frozen-prefix feature set of the next cascade stage. Eval-mode
// layers treat the samples of a batch independently and reduce each output
// element in a fixed order, so X[i] is bit-equal to the module's eval-mode
// output for sample i in a batch of any size and composition. The result
// holds in.Len()·|OutShape|·8 bytes and is read-only.
func (m *Module) MapFeatures(in *data.Dataset, batch int) *data.Dataset {
	out := &data.Dataset{
		Name:       in.Name,
		X:          make([]*tensor.Tensor, 0, in.Len()),
		Y:          in.Y,
		InShape:    append([]int(nil), m.OutShape...),
		NumClasses: in.NumClasses,
	}
	idx := make([]int, 0, batch)
	for start := 0; start < in.Len(); start += batch {
		idx = idx[:0]
		for i := start; i < start+batch && i < in.Len(); i++ {
			idx = append(idx, i)
		}
		x, _ := data.Batch(in, idx)
		z := m.ForwardAtoms(x, false)
		per := z.Len() / len(idx)
		for i := range idx {
			out.X = append(out.X, tensor.FromSlice(z.Data[i*per:(i+1)*per:(i+1)*per], m.OutShape...))
		}
	}
	return out
}

// Cascade is a partitioned backbone model.
type Cascade struct {
	Model      *nn.Model
	Modules    []*Module
	NumClasses int
	Batch      int // batch size assumed by the memory analysis

	// rangeParams memoizes RangeParams for the most recent module range.
	rangeFrom, rangeTo int
	rangeParams        []*nn.Param
}

// NewAuxHead builds the auxiliary output model θm: flatten + one linear
// layer onto the class logits.
func NewAuxHead(featShape []int, classes int, rng *rand.Rand) *nn.Sequential {
	feat := 1
	for _, d := range featShape {
		feat *= d
	}
	return nn.NewSequential("aux", nn.NewFlatten(), nn.NewLinear(feat, classes, rng))
}

// moduleMemReq estimates the training memory of a candidate module: its
// atoms plus (for non-final candidates) an aux head on its output features.
func moduleMemReq(atoms []nn.Layer, inShape []int, classes, batch int, withAux bool, rng *rand.Rand) int64 {
	c := memmodel.MemReq(atoms, inShape, batch)
	total := c.TotalBytes
	if withAux {
		shape := inShape
		for _, a := range atoms {
			shape = a.OutShape(shape)
		}
		aux := NewAuxHead(shape, classes, rng)
		ac := memmodel.MemReq([]nn.Layer{aux}, shape, batch)
		total += ac.TotalBytes
	}
	return total
}

// Partition implements Algorithm 1 (memory-constrained model partition):
// greedily append atoms into the current module until adding the next atom
// would reach the minimal reserved memory Rmin, then start a new module.
// It yields the minimum number of modules for the given constraint.
//
// The final module keeps the backbone's own classifier and gets no aux head.
func Partition(model *nn.Model, rminBytes int64, batch int, rng *rand.Rand) *Cascade {
	c := &Cascade{Model: model, NumClasses: model.NumClasses, Batch: batch}
	var cur []nn.Layer
	curIn := append([]int(nil), model.InShape...)
	shape := append([]int(nil), model.InShape...)

	flush := func() {
		if len(cur) == 0 {
			return
		}
		m := &Module{
			Index:   len(c.Modules),
			Atoms:   cur,
			InShape: append([]int(nil), curIn...),
		}
		out := curIn
		for _, a := range cur {
			out = a.OutShape(out)
		}
		m.OutShape = append([]int(nil), out...)
		c.Modules = append(c.Modules, m)
		cur = nil
		curIn = append([]int(nil), out...)
	}

	for _, atom := range model.Atoms {
		candidate := append(append([]nn.Layer(nil), cur...), atom)
		if len(cur) > 0 && moduleMemReq(candidate, curIn, model.NumClasses, batch, true, rng) >= rminBytes {
			flush()
			candidate = []nn.Layer{atom}
		}
		cur = candidate
		shape = atom.OutShape(shape)
	}
	flush()

	// Attach aux heads to all but the final module.
	for _, m := range c.Modules[:len(c.Modules)-1] {
		m.Aux = NewAuxHead(m.OutShape, model.NumClasses, rng)
	}
	for _, m := range c.Modules {
		m.collectParams()
	}
	return c
}

// ModuleMemReq returns the training memory requirement (bytes) of module i
// including its aux head, at the cascade's batch size.
func (c *Cascade) ModuleMemReq(i int) int64 {
	m := c.Modules[i]
	cost := memmodel.MemReq(m.Atoms, m.InShape, c.Batch)
	total := cost.TotalBytes
	if m.Aux != nil {
		ac := memmodel.MemReq([]nn.Layer{m.Aux}, m.OutShape, c.Batch)
		total += ac.TotalBytes
	}
	return total
}

// RangeMemReq returns the training memory of modules [from, to] trained
// jointly with the aux head of module `to` (Differentiated Module
// Assignment's memory constraint, Eq. 14).
func (c *Cascade) RangeMemReq(from, to int) int64 {
	var atoms []nn.Layer
	for i := from; i <= to; i++ {
		atoms = append(atoms, c.Modules[i].Atoms...)
	}
	cost := memmodel.MemReq(atoms, c.Modules[from].InShape, c.Batch)
	total := cost.TotalBytes
	if aux := c.Modules[to].Aux; aux != nil {
		ac := memmodel.MemReq([]nn.Layer{aux}, c.Modules[to].OutShape, c.Batch)
		total += ac.TotalBytes
	}
	return total
}

// ModuleForwardFLOPs returns the per-sample forward FLOPs of module i
// including its aux head.
func (c *Cascade) ModuleForwardFLOPs(i int) int64 {
	m := c.Modules[i]
	shape := m.InShape
	var f int64
	for _, a := range m.Atoms {
		f += a.ForwardFLOPs(shape)
		shape = a.OutShape(shape)
	}
	if m.Aux != nil {
		f += m.Aux.ForwardFLOPs(m.OutShape)
	}
	return f
}

// RangeForwardFLOPs returns the per-sample forward FLOPs of modules
// [from, to] plus the aux head of `to` (DMA's FLOPs constraint, Eq. 15).
func (c *Cascade) RangeForwardFLOPs(from, to int) int64 {
	var f int64
	shape := c.Modules[from].InShape
	for i := from; i <= to; i++ {
		for _, a := range c.Modules[i].Atoms {
			f += a.ForwardFLOPs(shape)
			shape = a.OutShape(shape)
		}
	}
	if aux := c.Modules[to].Aux; aux != nil {
		f += aux.ForwardFLOPs(c.Modules[to].OutShape)
	}
	return f
}

// PrefixForwardFLOPs returns the per-sample forward FLOPs of the fixed
// prefix modules 0..mIdx-1 (no aux heads) — the cost of producing z_{m-1}.
func (c *Cascade) PrefixForwardFLOPs(mIdx int) int64 {
	var f int64
	shape := c.Model.InShape
	for i := 0; i < mIdx; i++ {
		for _, a := range c.Modules[i].Atoms {
			f += a.ForwardFLOPs(shape)
			shape = a.OutShape(shape)
		}
	}
	return f
}

// ForwardPrefix computes the input feature z_{m-1} of module mIdx for raw
// input x by running the (fixed) modules 0..mIdx-1 in eval mode. Training
// reads z_{m-1} from the stage's feature set instead (Module.MapFeatures);
// this is the on-demand form for inputs outside the training set.
func (c *Cascade) ForwardPrefix(x *tensor.Tensor, mIdx int) *tensor.Tensor {
	for i := 0; i < mIdx; i++ {
		x = c.Modules[i].ForwardAtoms(x, false)
	}
	return x
}

// Composite builds an evaluable model of modules 0..mIdx plus the aux head
// of module mIdx (or the real classifier if mIdx is the final module). It is
// used for validation accuracy C_m, A_m during APA and for final evaluation.
func (c *Cascade) Composite(mIdx int) nn.Layer {
	var layers []nn.Layer
	for i := 0; i <= mIdx; i++ {
		layers = append(layers, c.Modules[i].Atoms...)
	}
	if aux := c.Modules[mIdx].Aux; aux != nil {
		layers = append(layers, aux)
	}
	return nn.NewSequential(fmt.Sprintf("cascade[0..%d]", mIdx), layers...)
}

// Full returns the whole backbone as a single evaluable layer.
func (c *Cascade) Full() nn.Layer { return c.Composite(len(c.Modules) - 1) }

// EarlyExitLoss evaluates Eq. (9)/(13): forward z through modules
// [from, to], apply the aux head of `to` (or the real classifier), and return
//
//	loss = CE(logits, y) + µ/2 · mean_b ‖z_to(b)‖²₂
//
// together with the gradient with respect to z. If train is true, parameter
// gradients of the touched modules are accumulated (callers must zero them
// first); in eval mode only the input gradient is produced and no parameter
// gradient is touched (the nn.Layer contract), so eval callers zero nothing.
func (c *Cascade) EarlyExitLoss(z *tensor.Tensor, labels []int, from, to int, mu float64, train bool) (float64, *tensor.Tensor) {
	cur := z
	for i := from; i <= to; i++ {
		cur = c.Modules[i].ForwardAtoms(cur, train)
	}
	feat := cur
	var logits *tensor.Tensor
	last := c.Modules[to]
	if last.Aux != nil {
		logits = last.Aux.Forward(feat, train)
	} else {
		logits = feat
	}

	loss, glogits := nn.SoftmaxCrossEntropy(logits, labels)

	// Strong-convexity regularizer µ/2·E‖z‖² on the module output features.
	// For the final module the features are the logits themselves.
	bsz := z.Dim(0)
	reg := 0.0
	var gfeat *tensor.Tensor
	if last.Aux != nil {
		gfeat = last.Aux.Backward(glogits)
	} else {
		gfeat = glogits
	}
	if mu > 0 {
		norm2 := 0.0
		for _, v := range feat.Data {
			norm2 += v * v
		}
		reg = mu / 2 * norm2 / float64(bsz)
		scale := mu / float64(bsz)
		for i, v := range feat.Data {
			gfeat.Data[i] += scale * v
		}
	}

	grad := gfeat
	for i := to; i >= from; i-- {
		grad = c.Modules[i].BackwardAtoms(grad)
	}
	return loss + reg, grad
}

// FeatureGradFn adapts the early-exit loss to an attack.GradFn over the
// module-range input feature, for intermediate-feature PGD. It evaluates in
// eval mode, so each attack step costs the input gradient only.
func (c *Cascade) FeatureGradFn(labels []int, from, to int, mu float64) attack.GradFn {
	return func(z *tensor.Tensor) (float64, *tensor.Tensor) {
		return c.EarlyExitLoss(z, labels, from, to, mu, false)
	}
}

// RangeParams returns the trainable parameters of modules [from, to], aux
// heads included, in module order. The slice is memoized for the most recent
// range — a client trains one range for all its local iterations — and must
// not be modified.
func (c *Cascade) RangeParams(from, to int) []*nn.Param {
	if c.rangeParams == nil || c.rangeFrom != from || c.rangeTo != to {
		var ps []*nn.Param
		for i := from; i <= to; i++ {
			ps = append(ps, c.Modules[i].Params()...)
		}
		c.rangeFrom, c.rangeTo, c.rangeParams = from, to, ps
	}
	return c.rangeParams
}

// AdversarialStep performs one local adversarial training iteration on
// modules [from, to]: perturb the input feature z inside the configured
// ball, then one SGD step on the strongly-convex early-exit loss. Returns
// the training loss on the perturbed batch.
func (c *Cascade) AdversarialStep(z *tensor.Tensor, labels []int, from, to int, atk attack.Config, mu float64, opt *nn.SGD, rng *rand.Rand) float64 {
	adv := z
	if atk.Eps > 0 && atk.Steps > 0 {
		adv = attack.Perturb(atk, z, c.FeatureGradFn(labels, from, to, mu), rng)
	}
	params := c.RangeParams(from, to)
	for _, p := range params {
		p.ZeroGrad()
	}
	loss, _ := c.EarlyExitLoss(adv, labels, from, to, mu, true)
	opt.Step(params)
	return loss
}

// MaxOutputPerturbation estimates E[max_{‖δ‖≤eps} ‖Δz_out‖₂] for module
// mIdx: PGD maximizes ‖z(z_in+δ) − z(z_in)‖² over the input ball and the
// per-sample output perturbation norms are averaged. This is the quantity
// the server collects to set the next module's ε (Eq. 11).
func (c *Cascade) MaxOutputPerturbation(zin *tensor.Tensor, mIdx int, atk attack.Config, rng *rand.Rand) float64 {
	m := c.Modules[mIdx]
	clean := m.ForwardAtoms(zin, false)
	cleanCopy := clean.Clone()

	gradFn := func(z *tensor.Tensor) (float64, *tensor.Tensor) {
		out := m.ForwardAtoms(z, false)
		diff := tensor.Sub(out, cleanCopy)
		obj := 0.5 * tensor.Dot(diff, diff)
		return obj, m.BackwardAtoms(diff)
	}
	adv := attack.Perturb(atk, zin, gradFn, rng)
	out := m.ForwardAtoms(adv, false)

	bsz := zin.Dim(0)
	per := out.Len() / bsz
	total := 0.0
	for b := 0; b < bsz; b++ {
		n := 0.0
		for i := 0; i < per; i++ {
			d := out.Data[b*per+i] - cleanCopy.Data[b*per+i]
			n += d * d
		}
		total += math.Sqrt(n)
	}
	return total / float64(bsz)
}
