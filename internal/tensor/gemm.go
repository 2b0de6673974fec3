package tensor

import "fmt"

// gemmAVX2 reports whether gemmBlock and qgemmBlock run the AVX2
// assembly microkernels (gemm_amd64.s). It is set once from the CPU's
// features and is false in purego and non-amd64 builds; tests clear it
// to run the Go reference loops on the same operands.
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
	if gemmAVX2 {
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
				ob[j] += float32(av * bv)
			}
		}
	}
}

// qgemmBlock is the inner block of every int8 GEMM kernel: for the m
// rows of a (row stride lda, first kc columns) and the kc-row weight
// block w (row stride ldw, first nw columns) it accumulates
//
//	acc[i*ldc+j] += (a[i*lda+p] - za) * w[p*ldw+j]   for p = 0, 1, …, kc-1
//
// in int32, wrapping on overflow as Go's int32 arithmetic does. Integer
// addition is exact and associative, so the AVX2 kernels, which
// multiply two p at a time and never skip, and qgemmBlockGo, which
// skips every a[i*lda+p] == za, give the same int32s by construction.
// pk is the AVX2 path's scratch, at least qpackLen(kc, nw) elements:
// the kernels read the weights packed there, and the block packs them
// from w on every call, so a weight fault written into w is always the
// value multiplied.
func qgemmBlock(a []int8, lda int, za int32, w []int8, ldw int, acc []int32, ldc, m, kc, nw int, pk []int32) {
	if m <= 0 || kc <= 0 || nw <= 0 {
		return
	}
	if len(a) < (m-1)*lda+kc || len(w) < (kc-1)*ldw+nw || len(acc) < (m-1)*ldc+nw ||
		lda < kc || ldw < nw || ldc < nw || len(pk) < qpackLen(kc, nw) {
		panic(fmt.Sprintf("tensor: qgemm block m=%d kc=%d nw=%d out of range (len a=%d/%d w=%d/%d acc=%d/%d pk=%d)",
			m, kc, nw, len(a), lda, len(w), ldw, len(acc), ldc, len(pk)))
	}
	// The kernels hold a−za in int16, exact for any int8 zero point.
	if gemmAVX2 && m >= qpackMinRows && za >= -128 && za <= 127 {
		qgemmBlockAVX2(a, lda, za, w, ldw, acc, ldc, m, kc, nw, pk)
		return
	}
	qgemmBlockGo(a, lda, za, w, ldw, acc, ldc, m, kc, nw)
}

// qpackMinRows is the row count below which qgemmBlock runs the Go loop
// even where the assembly is available: one row cannot amortize the
// scalar pack of the whole weight block. BenchmarkQGEMMShapes puts the
// Go loop about 1.4× ahead at batch-1 Dense shapes (m = 1) and the
// assembly ahead from m = 2.
const qpackMinRows = 2

// qpackLen is the int32 count of a kc×nw weight block packed as int16
// pairs: one dword per pair of rows and column, with the columns padded
// to a multiple of 8.
func qpackLen(kc, nw int) int { return (kc + 1) / 2 * ((nw + 7) &^ 7) }

// qgemmBlockGo is qgemmBlock in Go: the reference the assembly kernels
// are tested against, and the whole kernel where they are unavailable.
func qgemmBlockGo(a []int8, lda int, za int32, w []int8, ldw int, acc []int32, ldc, m, kc, nw int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+kc]
		ab := acc[i*ldc : i*ldc+nw]
		for p, q := range arow {
			av := int32(q) - za
			if av == 0 {
				continue
			}
			wrow := w[p*ldw : p*ldw+nw]
			for j, wv := range wrow {
				ab[j] += av * int32(wv)
			}
		}
	}
}
