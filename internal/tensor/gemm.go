package tensor

import "fmt"

// gemmAVX2 reports whether gemmBlock runs the AVX2 assembly microkernels
// (gemm_amd64.s). It is set once from the CPU's features and is false in
// purego and non-amd64 builds; tests clear it to run the Go reference
// loops on the same operands.
var gemmAVX2 = cpuHasAVX2()

// gemmBlock is the inner block of every fp32 forward GEMM kernel: for the
// m rows of a (row stride lda, first kc columns) and the kc-row B block b
// (row stride ldb, first w columns) it accumulates
//
//	o[i*ldo+j] += b[p*ldb+j] * a[i*lda+p]   for p = 0, 1, …, kc-1
//
// skipping every p whose a[i*lda+p] == 0. Callers clear o first (or pass
// the partial sums of earlier p-blocks), so o never holds -0 or a
// signalling NaN, which the AVX2 tile relies on (see gemm_amd64.s). Both
// implementations keep, per output element, the same p-ascending
// sequence of separately rounded multiplies and adds with the same
// operand order, so the AVX2 kernels and gemmBlockGo agree bit for bit,
// NaN payloads and zero signs included.
func gemmBlock(a []float32, lda int, b []float32, ldb int, o []float32, ldo, m, kc, w int) {
	if m <= 0 || kc <= 0 || w <= 0 {
		return
	}
	// The assembly kernels index raw pointers, so every operand extent is
	// checked here once.
	if len(a) < (m-1)*lda+kc || len(b) < (kc-1)*ldb+w || len(o) < (m-1)*ldo+w ||
		lda < kc || ldb < w || ldo < w {
		panic(fmt.Sprintf("tensor: gemm block m=%d kc=%d w=%d out of range (len a=%d/%d b=%d/%d o=%d/%d)",
			m, kc, w, len(a), lda, len(b), ldb, len(o), ldo))
	}
	if gemmAVX2 && w >= 8 {
		gemmBlockAVX2(a, lda, b, ldb, o, ldo, m, kc, w)
		return
	}
	gemmBlockGo(a, lda, b, ldb, o, ldo, m, kc, w)
}

// gemmBlockGo is gemmBlock in Go: the reference the assembly kernels are
// tested against, and the whole kernel where they are unavailable.
func gemmBlockGo(a []float32, lda int, b []float32, ldb int, o []float32, ldo, m, kc, w int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+kc]
		ob := o[i*ldo : i*ldo+w]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*ldb : p*ldb+w]
			for j, bv := range brow {
				ob[j] += av * bv
			}
		}
	}
}
