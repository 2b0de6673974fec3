package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedTail returns n elements of T that end exactly where an
// inaccessible page begins, so a kernel that reads or writes one
// element past the operand faults instead of passing unnoticed.
func guardedTail[T any](t *testing.T, n int) []T {
	t.Helper()
	page := syscall.Getpagesize()
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	span := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[span-size])), n)
}

// TestGEMMBlocksStayInBounds runs gemmBlock and qgemmBlock with each
// operand in turn placed flush against an inaccessible page, over every
// row-tile remainder, odd and even reductions and column counts around
// the 8- and 16-column chunks: the masked tails and the odd-k broadcast
// must touch no byte past an operand's last element.
func TestGEMMBlocksStayInBounds(t *testing.T) {
	for m := 1; m <= 5; m++ {
		for kc := 1; kc <= 4; kc++ {
			for w := 1; w <= 19; w++ {
				for guard := 0; guard < 3; guard++ {
					a, b, o := make([]float32, m*kc), make([]float32, kc*w), make([]float32, m*w)
					qa, qw, acc := make([]int8, m*kc), make([]int8, kc*w), make([]int32, m*w)
					switch guard {
					case 0:
						a, qa = guardedTail[float32](t, m*kc), guardedTail[int8](t, m*kc)
					case 1:
						b, qw = guardedTail[float32](t, kc*w), guardedTail[int8](t, kc*w)
					case 2:
						o, acc = guardedTail[float32](t, m*w), guardedTail[int32](t, m*w)
					}
					for i := range a {
						a[i], qa[i] = float32(i+1), int8(i+1)
					}
					for i := range b {
						b[i], qw[i] = float32(i%5), int8(i%5)
					}
					gemmBlock(a, kc, b, w, o, w, m, kc, w)
					qgemmBlock(qa, kc, 0, qw, w, acc, w, m, kc, w, make([]int32, qpackLen(kc, w)))
					for i := 0; i < m; i++ {
						for j := 0; j < w; j++ {
							var want int32
							for p := 0; p < kc; p++ {
								want += int32(qa[i*kc+p]) * int32(qw[p*w+j])
							}
							if acc[i*w+j] != want || o[i*w+j] != float32(want) {
								t.Fatalf("m=%d kc=%d w=%d guard=%d: (%d,%d) = %g, %d; want %d",
									m, kc, w, guard, i, j, o[i*w+j], acc[i*w+j], want)
							}
						}
					}
				}
			}
		}
	}
}
