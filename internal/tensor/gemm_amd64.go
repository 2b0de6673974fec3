//go:build amd64 && !purego

package tensor

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register 0 (XCR0).
func xgetbv() uint32

// cpuHasAVX2 reports whether the CPU supports AVX2 and the OS saves the
// YMM registers across context switches.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 0b110
	if xgetbv()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// gemmBlockAVX2 is gemmBlock on the assembly kernels: 4-row tiles, then
// single rows, over the columns up to the last multiple of 8; the Go
// loop takes the remaining columns.
func gemmBlockAVX2(a []float32, lda int, b []float32, ldb int, o []float32, ldo, m, kc, w int) {
	w8 := w &^ 7
	i := 0
	for ; i+4 <= m; i += 4 {
		gemmTile4AVX2(&a[i*lda], lda, &b[0], ldb, &o[i*ldo], ldo, kc, w8)
	}
	for ; i < m; i++ {
		gemmRowAVX2(&a[i*lda], &b[0], ldb, &o[i*ldo], kc, w8)
	}
	if w8 < w {
		gemmBlockGo(a, lda, b[w8:], ldb, o[w8:], ldo, m, kc, w-w8)
	}
}

// gemmTile4AVX2 is gemmBlock for 4 rows of a and o (row strides lda and
// ldo) and w columns, w a positive multiple of 8.
//
//go:noescape
func gemmTile4AVX2(a *float32, lda int, b *float32, ldb int, o *float32, ldo, kc, w int)

// gemmRowAVX2 is gemmBlock for one row and w columns, w a positive
// multiple of 8.
//
//go:noescape
func gemmRowAVX2(a, b *float32, ldb int, o *float32, kc, w int)
