//go:build !amd64 || purego

package tensor

// cpuHasAVX2 is false where no assembly kernels are built, so gemmBlock
// and qgemmBlock always run their Go loops.
func cpuHasAVX2() bool { return false }

func gemmBlockAVX2(a []float32, lda int, b []float32, ldb int, o []float32, ldo, m, kc, w int) {
	panic("tensor: no AVX2 kernels in this build")
}

func qgemmBlockAVX2(a []int8, lda int, za int32, w []int8, ldw int, acc []int32, ldc, m, kc, nw int, pk []int32) {
	panic("tensor: no AVX2 kernels in this build")
}
