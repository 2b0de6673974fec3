package tensor

import (
	"fmt"
	"sync"

	"ranger/internal/parallel"
)

// Int8 compute kernels. QMatMul is the quantized counterpart of the
// float32 matmul: int8 operands, int32 accumulation, and a caller-
// supplied requantization epilogue that collapses zero-point correction,
// bias, activation, and Ranger's range restriction into the single pass
// that writes each output row back to int8. QIm2ColInto lowers int8 NHWC
// inputs to patch rows so quantized convolution reuses the same GEMM.

// QMatMul multiplies the (m,k) int8 matrix a by the (k,n) int8 matrix w,
// accumulating acc[j] = Σ_p (a[p]-za)·w[p,j] in int32 and handing each
// row to requant, which must write the row's int8 outputs into outRow.
// Subtracting the zero point inside the loop (rather than correcting
// with a per-column weight sum afterwards) lets the Go kernel skip
// zero-valued operands exactly like the float kernels skip post-ReLU
// zeros — the raw byte for real 0.0 is za, not 0. The per-term product
// fits int32 for any reduction below ~65k taps, far past the zoo.
// Work is sharded across workers; integer accumulation makes results
// identical at every worker count by construction.
func QMatMul(a []int8, za int32, m, k int, w []int8, n int, out []int8, requant func(acc []int32, outRow []int8)) error {
	return QMatMulPack(a, za, m, k, w, n, out, requant, nil)
}

// qpanelPool recycles the packed weight panels of the sharded paths
// (one worker packs into the caller's scratch).
var qpanelPool = sync.Pool{New: func() any { return make([]int32, qpackLen(blockK, blockN)) }}

// QMatMulPack is QMatMul with its temporaries, the int32 accumulator
// matrix and the packed weight panel, taken from tmp, so steady-state
// calls allocate nothing; a nil tmp allocates. qmatmulPanels accumulates
// every row into the (m,n) accumulator, sharded by column blocks when
// there are enough of them and by rows otherwise, then requant writes
// each row. On one worker it runs inline, without a closure, so the
// campaign trial loop allocates nothing.
func QMatMulPack(a []int8, za int32, m, k int, w []int8, n int, out []int8, requant func(acc []int32, outRow []int8), tmp *QScratch) error {
	if len(a) < m*k || len(w) < k*n || len(out) < m*n {
		return fmt.Errorf("%w: qmatmul (%d,%d)x(%d,%d) over %d/%d/%d elements",
			ErrShape, m, k, k, n, len(a), len(w), len(out))
	}
	if tmp == nil {
		tmp = new(QScratch)
	}
	acc := tmp.Int32(m * n)
	workers := kernelWorkers(m * k * n)
	switch nb := (n + blockN - 1) / blockN; {
	case workers <= 1:
		qmatmulPanels(a, za, w, acc, k, n, 0, m, 0, n, tmp.Int32(qpackLen(min(k, blockK), min(n, blockN))))
	case nb >= workers:
		// Wide output: shard whole column blocks so no two workers pack
		// the same panel.
		parallel.Shard(workers, nb, func(b0, b1 int) {
			pk := qpanelPool.Get().([]int32)
			qmatmulPanels(a, za, w, acc, k, n, 0, m, b0*blockN, min(b1*blockN, n), pk)
			qpanelPool.Put(pk)
		})
	default:
		parallel.Shard(workers, m, func(lo, hi int) {
			pk := qpanelPool.Get().([]int32)
			qmatmulPanels(a, za, w, acc, k, n, lo, hi, 0, n, pk)
			qpanelPool.Put(pk)
		})
	}
	if workers <= 1 {
		qrequantRows(acc, out, n, 0, m, requant)
		return nil
	}
	parallel.Shard(workers, m, func(lo, hi int) { qrequantRows(acc, out, n, lo, hi, requant) })
	return nil
}

// qrequantRows hands rows [lo, hi) of the accumulator matrix to requant.
func qrequantRows(acc []int32, out []int8, n, lo, hi int, requant func(acc []int32, outRow []int8)) {
	for i := lo; i < hi; i++ {
		requant(acc[i*n:(i+1)*n], out[i*n:(i+1)*n])
	}
}

// qmatmulPanels accumulates the int8 GEMM for output rows [lo, hi) and
// columns [jw0, jw1) into the int32 accumulator matrix acc (row stride
// n), one blockK×blockN weight block at a time, each packed once into
// pk and reused across every row — the int8 mirror of matmulPanels.
func qmatmulPanels(a []int8, za int32, w []int8, acc []int32, k, n, lo, hi, jw0, jw1 int, pk []int32) {
	for j0 := jw0; j0 < jw1; j0 += blockN {
		j1 := min(j0+blockN, jw1)
		for i := lo; i < hi; i++ {
			clear(acc[i*n+j0 : i*n+j1])
		}
		for p0 := 0; p0 < k; p0 += blockK {
			p1 := min(p0+blockK, k)
			qgemmBlock(a[lo*k+p0:], k, za, w[p0*n+j0:], n, acc[lo*n+j0:], n, hi-lo, p1-p0, j1-j0, pk)
		}
	}
}

// QIm2ColInto lowers an int8 NHWC tensor into patch rows of length
// KH*KW*C in dst (which must hold N*OH*OW rows). Padding taps are filled
// with pad — the input's zero point, so padded positions dequantize to
// exactly 0.0 like the float kernel's zero padding.
func QIm2ColInto(dst []int8, x *QTensor, g ConvGeom, pad int8) error {
	if x.Rank() != 4 {
		return fmt.Errorf("%w: qim2col wants NHWC, got %v", ErrShape, x.shape)
	}
	n, h, w, c := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutDims(h, w)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("%w: qim2col output %dx%d for input %v geom %+v", ErrShape, oh, ow, x.shape, g)
	}
	rowLen := g.KH * g.KW * c
	rows := n * oh * ow
	if len(dst) < rows*rowLen {
		return fmt.Errorf("%w: qim2col dst %d elements, want %d", ErrShape, len(dst), rows*rowLen)
	}
	if workers := kernelWorkers(rows * rowLen); workers > 1 {
		parallel.Shard(workers, rows, func(lo, hi int) { qim2colRows(dst, x, g, pad, lo, hi) })
	} else {
		qim2colRows(dst, x, g, pad, 0, rows)
	}
	return nil
}

// qim2colRows writes patch rows [lo, hi) of QIm2ColInto.
func qim2colRows(dst []int8, x *QTensor, g ConvGeom, pad int8, lo, hi int) {
	h, w, c := x.shape[1], x.shape[2], x.shape[3]
	oh, ow := g.OutDims(h, w)
	rowLen := g.KH * g.KW * c
	xd := x.data
	for r := lo; r < hi; r++ {
		b := r / (oh * ow)
		oy := r / ow % oh
		ox := r % ow
		row := r * rowLen
		for i := row; i < row+rowLen; i++ {
			dst[i] = pad
		}
		for ky := 0; ky < g.KH; ky++ {
			iy := oy*g.SH - g.PadH + ky
			if iy < 0 || iy >= h {
				continue
			}
			for kx := 0; kx < g.KW; kx++ {
				ix := ox*g.SW - g.PadW + kx
				if ix < 0 || ix >= w {
					continue
				}
				src := ((b*h+iy)*w + ix) * c
				d := row + (ky*g.KW+kx)*c
				copy(dst[d:d+c], xd[src:src+c])
			}
		}
	}
}
