//go:build !amd64 || purego

package tensor

// cpuHasAVX2 is false where no assembly kernels are built, so gemmBlock
// always runs gemmBlockGo.
func cpuHasAVX2() bool { return false }

func gemmBlockAVX2(a []float32, lda int, b []float32, ldb int, o []float32, ldo, m, kc, w int) {
	panic("tensor: no AVX2 kernels in this build")
}
