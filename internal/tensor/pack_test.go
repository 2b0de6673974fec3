package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ranger/internal/parallel"
)

// randMat builds an (m,n) tensor with a mix of magnitudes and exact
// zeros, so the packed kernel's zero-skip and accumulation order face
// the same values the row kernel sees.
func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	d := t.Data()
	for i := range d {
		switch rng.Intn(5) {
		case 0:
			d[i] = 0 // exercise the zero-skip path
		case 1:
			d[i] = float32(rng.NormFloat64() * 1e-3)
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
	return t
}

// TestMatMulPackBitIdentical pins the packed lane-batched kernel to the
// row kernel bit for bit, across shapes spanning every internal path
// (single block, wide-N blocked, tall-M, lane counts around PackMinRows)
// and worker counts.
func TestMatMulPackBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 7, 9},    // below PackMinRows: delegates to MatMulInto
		{4, 16, 8},   // minimum packed rows
		{8, 130, 40}, // spans a blockK boundary
		{16, 64, 600},
		{5, 300, 1100}, // multiple j-blocks
		{37, 128, 512}, // exact block sizes
	}
	for _, workers := range []int{1, 3} {
		parallel.SetWorkers(workers)
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a, b := randMat(rng, m, k), randMat(rng, k, n)
			want, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			pack := make([]float32, PackPanelLen)
			got, err := MatMulPackInto(New(m, n), a, b, pack)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want.Data() {
				if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("workers=%d (%d,%d)x(%d,%d): elem %d: packed %g != row %g",
						workers, m, k, k, n, i, g, w)
				}
			}
			// nil pack must allocate its own panel and still agree.
			got2, err := MatMulPackInto(nil, a, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want.Data() {
				if g := got2.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("workers=%d nil-pack elem %d: %g != %g", workers, i, g, w)
				}
			}
		}
	}
	parallel.SetWorkers(0)
}

// TestQMatMulPackIdentical pins QMatMul and QMatMulPack, with a reused
// scratch, to a plain unblocked triple loop, on the assembly kernels
// (where the CPU has them) and on the Go loop. The int32 accumulation is
// exact, so outputs must match byte for byte. The larger shapes pass
// blockK and blockN, so the column blocks and p-blocks of qmatmulPanels,
// its column sharding (2 workers, two column blocks) and its row
// sharding (4 workers) are all checked against the oracle.
func TestQMatMulPackIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	requant := func(acc []int32, outRow []int8) {
		for j, v := range acc {
			q := v >> 4
			if q > 127 {
				q = 127
			} else if q < -128 {
				q = -128
			}
			outRow[j] = int8(q)
		}
	}
	avx2 := gemmAVX2
	defer func() { gemmAVX2 = avx2 }()
	defer parallel.SetWorkers(0)
	shapes := [][3]int{{2, 9, 5}, {4, 40, 33}, {12, 130, 600}, {33, 256, 1024}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]int8, m*k)
		w := make([]int8, k*n)
		for i := range a {
			a[i] = int8(rng.Intn(256) - 128)
		}
		for i := range w {
			w[i] = int8(rng.Intn(256) - 128)
		}
		za := int32(a[0]) // make some operands hit the zero-skip
		want := make([]int8, m*n)
		acc := make([]int32, n)
		for i := 0; i < m; i++ {
			for j := range acc {
				acc[j] = 0
				for p := 0; p < k; p++ {
					acc[j] += (int32(a[i*k+p]) - za) * int32(w[p*n+j])
				}
			}
			requant(acc, want[i*n:(i+1)*n])
		}
		for _, impl := range []bool{true, false} {
			if impl && !avx2 {
				continue
			}
			gemmAVX2 = impl
			for _, workers := range []int{1, 2, 4} {
				parallel.SetWorkers(workers)
				got := make([]int8, m*n)
				if err := QMatMul(a, za, m, k, w, n, got, requant); err != nil {
					t.Fatal(err)
				}
				var tmp QScratch
				got2 := make([]int8, m*n)
				for range 2 {
					tmp.Reset()
					if err := QMatMulPack(a, za, m, k, w, n, got2, requant, &tmp); err != nil {
						t.Fatal(err)
					}
				}
				for i, v := range want {
					if got[i] != v || got2[i] != v {
						t.Fatalf("asm=%v workers=%d (%d,%d,%d): elem %d: QMatMul %d, QMatMulPack %d, want %d",
							impl, workers, m, k, n, i, got[i], got2[i], v)
					}
				}
			}
		}
	}
}
