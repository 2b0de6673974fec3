package ops

import (
	"fmt"
	"math"

	"ranger/internal/graph"
	"ranger/internal/parallel"
	"ranger/internal/tensor"
)

// TypeClip is the op type of the range-restriction operator Ranger
// inserts. It is the counterpart of the tf.minimum/tf.maximum pair the
// paper's TensorFlow implementation adds (§IV).
const TypeClip = "RangerClip"

// Policy selects what a Clip does to an out-of-bound value. The paper's
// default restores the value to the violated bound; §VI-C evaluates two
// design alternatives.
type Policy int

// Restriction policies from the paper.
const (
	// PolicyClip truncates out-of-bound values to the restriction bound
	// (Ranger's default; deterministic, preserves accuracy).
	PolicyClip Policy = iota + 1
	// PolicyZero resets out-of-bound values to 0 (Reagen et al. style;
	// shown in §VI-C to destroy accuracy).
	PolicyZero
	// PolicyRandom replaces out-of-bound values with a uniform random
	// value inside the bound (viable but non-deterministic, §VI-C).
	PolicyRandom
)

func (p Policy) String() string {
	switch p {
	case PolicyClip:
		return "clip"
	case PolicyZero:
		return "zero"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ClipOp bounds every element of its input into [Low, High] according to
// the chosen policy. For PolicyRandom each replacement is a pure hash of
// the element's index and faulty bit pattern, so the op is stateless:
// race-free and bit-reproducible under any execution order or worker
// count (stronger than the paper's "non-deterministic" framing needs).
type ClipOp struct {
	Low, High float32
	Policy    Policy
}

var (
	_ graph.GradOp    = (*ClipOp)(nil)
	_ graph.ScratchOp = (*ClipOp)(nil)
)

// NewClip returns the default (truncating) range-restriction op.
func NewClip(low, high float32) *ClipOp {
	return &ClipOp{Low: low, High: high, Policy: PolicyClip}
}

// Type implements graph.Op.
func (c *ClipOp) Type() string { return TypeClip }

// Eval implements graph.Op.
func (c *ClipOp) Eval(in []*tensor.Tensor) (*tensor.Tensor, error) {
	return c.eval(in, nil)
}

// EvalScratch implements graph.ScratchOp.
func (c *ClipOp) EvalScratch(in []*tensor.Tensor, s *graph.Scratch) (*tensor.Tensor, error) {
	return c.eval(in, s)
}

func (c *ClipOp) eval(in []*tensor.Tensor, s *graph.Scratch) (*tensor.Tensor, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("clip: want 1 input, got %d", len(in))
	}
	if c.Low > c.High {
		return nil, fmt.Errorf("clip: low %g > high %g", c.Low, c.High)
	}
	x := in[0]
	var out *tensor.Tensor
	if s != nil {
		out = s.Get(x.Shape()...)
	} else {
		out = tensor.New(x.Shape()...)
	}
	c.fill(x, out)
	return out, nil
}

// fill clips x into out (same size; every element is written).
func (c *ClipOp) fill(x, out *tensor.Tensor) {
	xd, od := x.Data(), out.Data()
	switch c.Policy {
	case PolicyZero:
		for i, v := range xd {
			if v < c.Low || v > c.High {
				od[i] = 0
			} else {
				od[i] = v
			}
		}
	case PolicyRandom:
		span := c.High - c.Low
		for i, v := range xd {
			if v < c.Low || v > c.High {
				h := parallel.Mix64(uint64(math.Float32bits(v)) | uint64(i+1)<<32)
				u := float32(h>>11) / float32(1<<53)
				od[i] = c.Low + float32(u*span)
			} else {
				od[i] = v
			}
		}
	default: // PolicyClip
		for i, v := range xd {
			if v < c.Low {
				od[i] = c.Low
			} else if v > c.High {
				od[i] = c.High
			} else {
				od[i] = v
			}
		}
	}
}

// Grad implements graph.GradOp: gradient passes through where the value is
// strictly inside the bound (the clip is inserted post-training, but
// supporting gradients keeps protected graphs trainable).
func (c *ClipOp) Grad(in []*tensor.Tensor, _, gout *tensor.Tensor) ([]*tensor.Tensor, error) {
	x := in[0]
	g := tensor.New(x.Shape()...)
	xd, gd, od := x.Data(), gout.Data(), g.Data()
	for i, v := range xd {
		if v >= c.Low && v <= c.High {
			od[i] = gd[i]
		}
	}
	return []*tensor.Tensor{g}, nil
}
