package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ranger/internal/parallel"
)

// gemmOperand fills n float32s with the values that stress bit identity:
// about 40% ±0 (the skipped operands), ±Inf, quiet and signalling NaNs
// with distinct payloads and signs, random bit patterns (subnormals
// included) and ordinary magnitudes.
func gemmOperand(rng *rand.Rand, n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		sign := uint32(rng.Intn(2)) << 31
		switch r := rng.Intn(20); {
		case r < 8:
			d[i] = math.Float32frombits(sign) // ±0
		case r == 8:
			d[i] = math.Float32frombits(sign | 0x7f800000) // ±Inf
		case r == 9:
			// NaN: any nonzero payload, quiet or signalling.
			d[i] = math.Float32frombits(sign | 0x7f800000 | (1 + rng.Uint32()%0x7fffff))
		case r == 10:
			d[i] = math.Float32frombits(rng.Uint32())
		case r == 11:
			d[i] = math.Float32frombits(sign | rng.Uint32()%0x800000) // subnormal
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
	return d
}

// gemmPaths runs every fp32 forward kernel body on (m,k)x(k,n) operands
// at the given worker count, returning each path's output by name.
func gemmPaths(ad, bd []float32, m, k, n, workers int) map[string][]float32 {
	run := func(fn func(od []float32)) []float32 {
		od := make([]float32, m*n)
		for i := range od {
			od[i] = float32(i) // the kernels must overwrite stale output
		}
		fn(od)
		return od
	}
	return map[string][]float32{
		"matmulRows": run(func(od []float32) {
			parallel.Shard(workers, m, func(lo, hi int) { matmulRows(ad, bd, od, k, n, lo, hi) })
		}),
		"matmulCols": run(func(od []float32) {
			parallel.Shard(workers, n, func(j0, j1 int) { matmulCols(ad, bd, od, m, k, n, j0, j1) })
		}),
		"matmulPanels/rows": run(func(od []float32) {
			parallel.Shard(workers, m, func(lo, hi int) {
				matmulPanels(ad, bd, od, k, n, lo, hi, 0, n, make([]float32, PackPanelLen))
			})
		}),
		"matmulPanels/blocks": run(func(od []float32) {
			parallel.Shard(workers, (n+blockN-1)/blockN, func(b0, b1 int) {
				matmulPanels(ad, bd, od, k, n, 0, m, b0*blockN, min(b1*blockN, n), make([]float32, PackPanelLen))
			})
		}),
	}
}

// FuzzGEMMAsmBitIdentical pins the assembly GEMM microkernels to the Go
// reference loops bit for bit — NaN payloads, zero signs and Inf
// included — on every kernel body, at 1 and 2 workers, for shapes that
// cover n < 8, n%8 != 0, n > blockN and k > blockK.
func FuzzGEMMAsmBitIdentical(f *testing.F) {
	if !gemmAVX2 {
		f.Skip("no assembly GEMM kernels in this build or on this CPU")
	}
	for _, c := range [][4]int{
		{1, 3, 1, 5}, {2, 4, 7, 6}, {3, 5, 9, 16}, {4, 8, 27, 8}, {5, 9, 72, 17},
		{6, 13, 130, 33}, {7, 6, 300, 40}, {8, 4, 20, 530}, {9, 11, 140, 600},
	} {
		f.Add(int64(c[0]), uint16(c[1]), uint16(c[2]), uint16(c[3]))
	}
	f.Fuzz(func(t *testing.T, seed int64, mu, ku, nu uint16) {
		m, k, n := 1+int(mu)%16, 1+int(ku)%320, 1+int(nu)%640
		rng := rand.New(rand.NewSource(seed))
		ad, bd := gemmOperand(rng, m*k), gemmOperand(rng, k*n)
		for _, workers := range []int{1, 2} {
			gemmAVX2 = false
			want := gemmPaths(ad, bd, m, k, n, workers)
			gemmAVX2 = true
			got := gemmPaths(ad, bd, m, k, n, workers)
			for path, w := range want {
				for i := range w {
					if wb, gb := math.Float32bits(w[i]), math.Float32bits(got[path][i]); wb != gb {
						t.Fatalf("%s (%d,%d)x(%d,%d) workers=%d: element (%d,%d) asm %#08x != go %#08x",
							path, m, k, k, n, workers, i/n, i%n, gb, wb)
					}
				}
			}
		}
	})
}

// vgg11Lane8Shapes are the (m,k,n) conv GEMMs of vgg11 at lane width 8:
// m = 8 lanes × OH·OW patch rows, k = 3·3·inC, n = outC.
var vgg11Lane8Shapes = [][3]int{
	{8192, 27, 8}, {2048, 72, 16}, {512, 144, 32}, {512, 288, 32},
	{128, 288, 64}, {128, 576, 64}, {32, 576, 64},
}

// BenchmarkGEMMShapes reports GFLOP/s of the panel-packed conv GEMM on
// one worker, on post-ReLU-like operands (about half the activations
// zero), with the assembly kernels and with the Go reference loops.
func BenchmarkGEMMShapes(b *testing.B) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	avx2 := gemmAVX2
	defer func() { gemmAVX2 = avx2 }()
	rng := rand.New(rand.NewSource(1))
	for _, s := range vgg11Lane8Shapes {
		m, k, n := s[0], s[1], s[2]
		a, w := New(m, k), New(k, n)
		for i := range a.data {
			a.data[i] = max(0, float32(rng.NormFloat64()))
		}
		for i := range w.data {
			w.data[i] = float32(rng.NormFloat64()) * 0.05
		}
		dst, pack := New(m, n), make([]float32, PackPanelLen)
		for _, impl := range []string{"asm", "go"} {
			if impl == "asm" && !avx2 {
				continue
			}
			b.Run(fmt.Sprintf("%s/%dx%dx%d", impl, m, k, n), func(b *testing.B) {
				gemmAVX2 = impl == "asm"
				for i := 0; i < b.N; i++ {
					if _, err := MatMulPackInto(dst, a, w, pack); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
