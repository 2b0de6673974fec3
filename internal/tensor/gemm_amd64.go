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
// single rows, each over all w columns (the last w%8 through masked
// loads and stores).
func gemmBlockAVX2(a []float32, lda int, b []float32, ldb int, o []float32, ldo, m, kc, w int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		gemmTile4AVX2(&a[i*lda], lda, &b[0], ldb, &o[i*ldo], ldo, kc, w)
	}
	for ; i < m; i++ {
		gemmRowAVX2(&a[i*lda], &b[0], ldb, &o[i*ldo], kc, w)
	}
}

// gemmTile4AVX2 is gemmBlock for 4 rows of a and o (row strides lda and
// ldo) and w > 0 columns.
//
//go:noescape
func gemmTile4AVX2(a *float32, lda int, b *float32, ldb int, o *float32, ldo, kc, w int)

// gemmRowAVX2 is gemmBlock for one row and w > 0 columns.
//
//go:noescape
func gemmRowAVX2(a, b *float32, ldb int, o *float32, kc, w int)

// qgemmBlockAVX2 is qgemmBlock on the assembly kernels: it packs the
// weight block into pk, then runs 4-row tiles, then single rows.
func qgemmBlockAVX2(a []int8, lda int, za int32, w []int8, ldw int, acc []int32, ldc, m, kc, nw int, pk []int32) {
	ldp := qpackPairs(w, ldw, kc, nw, pk)
	i := 0
	for ; i+4 <= m; i += 4 {
		qgemmTile4AVX2(&a[i*lda], lda, int(za), &pk[0], ldp, &acc[i*ldc], ldc, kc, nw)
	}
	for ; i < m; i++ {
		qgemmRowAVX2(&a[i*lda], int(za), &pk[0], ldp, &acc[i*ldc], kc, nw)
	}
}

// qpackPairs packs the kc×nw weight block w (row stride ldw) into pk
// for the assembly kernels and returns the packed row stride ldp, nw
// rounded up to 8: dword j of pair row q holds w[2q][j] in its low
// int16 and w[2q+1][j] in its high one. A last unpaired row and the
// padding columns pack as zeros.
func qpackPairs(w []int8, ldw, kc, nw int, pk []int32) int {
	ldp := (nw + 7) &^ 7
	for p := 0; p < kc; p += 2 {
		dst := pk[p/2*ldp : p/2*ldp+ldp]
		lo := w[p*ldw : p*ldw+nw]
		if p+1 == kc {
			for j, v := range lo {
				dst[j] = int32(uint16(v))
			}
		} else {
			hi := w[(p+1)*ldw : (p+1)*ldw+nw]
			for j, v := range lo {
				dst[j] = int32(uint16(v)) | int32(hi[j])<<16
			}
		}
		clear(dst[nw:])
	}
	return ldp
}

// qgemmTile4AVX2 is qgemmBlock for 4 rows of a and acc (row strides lda
// and ldc), nw > 0 columns and the weights packed in pk with row stride
// ldp.
//
//go:noescape
func qgemmTile4AVX2(a *int8, lda, za int, pk *int32, ldp int, acc *int32, ldc, kc, nw int)

// qgemmRowAVX2 is qgemmTile4AVX2 for one row.
//
//go:noescape
func qgemmRowAVX2(a *int8, za int, pk *int32, ldp int, acc *int32, kc, nw int)
