package ops

import (
	"fmt"
	"math"

	"ranger/internal/graph"
	"ranger/internal/tensor"
)

// Op type names for output heads and losses.
const (
	TypeSoftmax = "Softmax"
	TypeXent    = "SoftmaxCrossEntropy"
	TypeMSE     = "MSE"
)

// SoftmaxOp normalizes each row of a (N,C) tensor into a probability
// distribution (numerically stabilized by max subtraction).
type SoftmaxOp struct{}

var _ graph.Op = (*SoftmaxOp)(nil)

// Type implements graph.Op.
func (SoftmaxOp) Type() string { return TypeSoftmax }

// Eval implements graph.Op.
func (SoftmaxOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("softmax: want 1 input, got %d", len(in))
	}
	x := in[0]
	if x.Rank() != 2 {
		return nil, fmt.Errorf("softmax: want (N,C), got %v", x.Shape())
	}
	return softmaxRows(x), nil
}

func softmaxRows(x *tensor.Tensor) *tensor.Tensor {
	n, c := x.Dim(0), x.Dim(1)
	out := tensor.New(n, c)
	xd, od := x.Data(), out.Data()
	for i := 0; i < n; i++ {
		row := xd[i*c : (i+1)*c]
		orow := od[i*c : (i+1)*c]
		m := float32(math.Inf(-1))
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - m))
			orow[j] = float32(e)
			sum += e
		}
		if sum == 0 {
			sum = 1
		}
		inv := float32(1 / sum)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// XentOp computes mean softmax cross-entropy between logits (input 0,
// shape (N,C)) and one-hot labels (input 1, same shape), yielding a scalar.
type XentOp struct{}

var _ graph.GradOp = (*XentOp)(nil)

// Type implements graph.Op.
func (XentOp) Type() string { return TypeXent }

// Eval implements graph.Op.
func (XentOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("xent: want (logits, onehot), got %d inputs", len(in))
	}
	logits, labels := in[0], in[1]
	if !logits.SameShape(labels) {
		return nil, fmt.Errorf("xent: logits %v vs labels %v", logits.Shape(), labels.Shape())
	}
	probs := softmaxRows(logits)
	pd, ld := probs.Data(), labels.Data()
	var loss float64
	for i, l := range ld {
		if l > 0 {
			p := float64(pd[i])
			if p < 1e-12 {
				p = 1e-12
			}
			loss -= float64(float64(l) * math.Log(p))
		}
	}
	n := logits.Dim(0)
	return tensor.Scalar(float32(loss / float64(n))), nil
}

// Grad implements graph.GradOp: d/dlogits = (softmax - labels) / N.
func (XentOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	logits, labels := in[0], in[1]
	probs := softmaxRows(logits)
	n := float32(logits.Dim(0))
	scale := gout.Data()[0] / n
	pd, ld := probs.Data(), labels.Data()
	for i := range pd {
		pd[i] = (pd[i] - ld[i]) * scale
	}
	return []*tensor.Tensor{probs, nil}, nil
}

// MSEOp computes the mean squared error between predictions (input 0) and
// targets (input 1), yielding a scalar; used by the steering models.
type MSEOp struct{}

var _ graph.GradOp = (*MSEOp)(nil)

// Type implements graph.Op.
func (MSEOp) Type() string { return TypeMSE }

// Eval implements graph.Op.
func (MSEOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("mse: want (pred, target), got %d inputs", len(in))
	}
	p, t := in[0], in[1]
	if !p.SameShape(t) {
		return nil, fmt.Errorf("mse: pred %v vs target %v", p.Shape(), t.Shape())
	}
	pd, td := p.Data(), t.Data()
	var s float64
	for i := range pd {
		d := float64(pd[i] - td[i])
		s += float64(d * d)
	}
	return tensor.Scalar(float32(s / float64(len(pd)))), nil
}

// Grad implements graph.GradOp: d/dpred = 2(pred-target)/n.
func (MSEOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	p, t := in[0], in[1]
	g := tensor.New(p.Shape()...)
	pd, td, gd := p.Data(), t.Data(), g.Data()
	scale := 2 * gout.Data()[0] / float32(len(pd))
	for i := range pd {
		gd[i] = (pd[i] - td[i]) * scale
	}
	return []*tensor.Tensor{g, nil}, nil
}
