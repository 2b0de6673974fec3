//go:build amd64 && !purego

#include "textflag.h"

// AVX2 fp32 GEMM microkernels for gemmBlock. Per output element they
// perform exactly the Go loop's arithmetic: p ascending, a separate
// VMULPS with the B element as first source (b*a), then a separate
// VADDPS with the product as first source (prod + acc), and no FMA. The
// first source decides which NaN an x86 instruction returns when both
// operands are NaN, so this order keeps NaN payloads equal to the Go
// kernel's MULSS/ADDSS. Only VEX-encoded instructions are used: mixing
// legacy SSE with dirty YMM upper halves stalls the pipeline.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// Y14 holds +0.0. In the 4-row tile every row multiplies, and a row
// whose a value is ±0 has its product masked to +0 (VCMPPS not-equal
// against zero, then VANDPS), so it adds +0 instead of being skipped.
// That leaves the accumulator's bits unchanged: x + (+0) == x for every
// x except -0 and signalling NaNs, and an accumulator holds neither,
// because it starts at +0 and a sum is -0 only when both addends are -0,
// while arithmetic only produces quiet NaNs.
#define ZERO Y14

// tailmask holds eight all-ones dwords then eight zero dwords: the 32
// bytes at tailmask+4·(8−r) enable the first r lanes of a VMASKMOVPS or
// VPMASKMOVD.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TAIL_MASK loads into Y15 the mask enabling the first min(BX, 8)
// lanes, BX >= 1. It clobbers AX and R11.
#define TAIL_MASK \
	MOVQ    BX, R11; \
	MOVQ    $8, AX; \
	CMPQ    R11, AX; \
	CMOVQGT AX, R11; \
	NEGQ    R11; \
	LEAQ    tailmask<>+32(SB), AX; \
	VMOVDQU (AX)(R11*4), Y15

// TILE_ROW8 updates one tile row's accumulator acc from the B vector in
// Y8 and the row's a value at aaddr.
#define TILE_ROW8(aaddr, acc) \
	VBROADCASTSS aaddr, Y10; \
	VCMPPS       $4, ZERO, Y10, Y11; \
	VMULPS       Y10, Y8, Y12; \
	VANDPS       Y11, Y12, Y12; \
	VADDPS       acc, Y12, acc

// TILE_ROW16 is TILE_ROW8 for two accumulators and the B vectors in Y8
// and Y9.
#define TILE_ROW16(aaddr, acc0, acc1) \
	VBROADCASTSS aaddr, Y10; \
	VCMPPS       $4, ZERO, Y10, Y11; \
	VMULPS       Y10, Y8, Y12; \
	VMULPS       Y10, Y9, Y13; \
	VANDPS       Y11, Y12, Y12; \
	VANDPS       Y11, Y13, Y13; \
	VADDPS       acc0, Y12, acc0; \
	VADDPS       acc1, Y13, acc1

// TILE_SKIP jumps to next when the tile's four a values at (R9) are all
// ±0, which leaves every accumulator unchanged.
#define TILE_SKIP(next) \
	MOVL (R9), AX; \
	ORL  (R9)(R12*1), AX; \
	ORL  (R9)(R12*2), AX; \
	ORL  (R9)(R13*1), AX; \
	ANDL $0x7fffffff, AX; \
	JZ   next

// func gemmTile4AVX2(a *float32, lda int, b *float32, ldb int, o *float32, ldo, kc, w int)
//
// Register use: SI a, R12/R13 one/three a rows in bytes, DX b at the
// current column chunk, R8 a b row in bytes, DI o at the current column
// chunk, CX an o row in bytes, BX columns left; R9, R10 and R11 walk a,
// b and the p count within a chunk. The 4×16 tile keeps its 8
// accumulators in Y0–Y7; a last 8-column chunk uses a 4×8 tile, and the
// last 1–7 columns a masked 4×8 tile.
TEXT ·gemmTile4AVX2(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13
	MOVQ b+16(FP), DX
	MOVQ ldb+24(FP), R8
	SHLQ $2, R8
	MOVQ o+32(FP), DI
	MOVQ ldo+40(FP), CX
	SHLQ $2, CX
	MOVQ w+56(FP), BX
	VXORPS ZERO, ZERO, ZERO

tile16:
	CMPQ BX, $16
	JLT  tile8
	LEAQ (DI)(CX*2), AX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(CX*1), Y2
	VMOVUPS 32(DI)(CX*1), Y3
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	VMOVUPS (AX)(CX*1), Y6
	VMOVUPS 32(AX)(CX*1), Y7
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ kc+48(FP), R11

loop16:
	TILE_SKIP(next16)
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	TILE_ROW16((R9), Y0, Y1)
	TILE_ROW16((R9)(R12*1), Y2, Y3)
	TILE_ROW16((R9)(R12*2), Y4, Y5)
	TILE_ROW16((R9)(R13*1), Y6, Y7)

next16:
	ADDQ $4, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  loop16
	LEAQ (DI)(CX*2), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(CX*1)
	VMOVUPS Y3, 32(DI)(CX*1)
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	VMOVUPS Y6, (AX)(CX*1)
	VMOVUPS Y7, 32(AX)(CX*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, BX
	JMP  tile16

tile8:
	// A full 8-column chunk keeps unmasked loads: sending it through the
	// masked loop below measured about 12% slower at dave's 658×150×9
	// (BenchmarkGEMMShapes, 20 alternating runs).
	CMPQ BX, $8
	JLT  tilemask
	LEAQ (DI)(CX*2), AX
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(CX*1), Y2
	VMOVUPS (AX), Y4
	VMOVUPS (AX)(CX*1), Y6
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ kc+48(FP), R11

loop8:
	TILE_SKIP(next8)
	VMOVUPS (R10), Y8
	TILE_ROW8((R9), Y0)
	TILE_ROW8((R9)(R12*1), Y2)
	TILE_ROW8((R9)(R12*2), Y4)
	TILE_ROW8((R9)(R13*1), Y6)

next8:
	ADDQ $4, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  loop8
	LEAQ (DI)(CX*2), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (DI)(CX*1)
	VMOVUPS Y4, (AX)
	VMOVUPS Y6, (AX)(CX*1)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, BX
	JMP  tile8

tilemask:
	// The last 1–7 columns: B and o move through VMASKMOVPS with the
	// first BX lanes enabled, so no load or store passes column w. The
	// disabled lanes compute on zeros and are never stored.
	TESTQ BX, BX
	JZ    tiledone
	TAIL_MASK
	LEAQ (DI)(CX*2), AX
	VMASKMOVPS (DI), Y15, Y0
	VMASKMOVPS (DI)(CX*1), Y15, Y2
	VMASKMOVPS (AX), Y15, Y4
	VMASKMOVPS (AX)(CX*1), Y15, Y6
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ kc+48(FP), R11

loopm:
	TILE_SKIP(nextm)
	VMASKMOVPS (R10), Y15, Y8
	TILE_ROW8((R9), Y0)
	TILE_ROW8((R9)(R12*1), Y2)
	TILE_ROW8((R9)(R12*2), Y4)
	TILE_ROW8((R9)(R13*1), Y6)

nextm:
	ADDQ $4, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  loopm
	LEAQ (DI)(CX*2), AX
	VMASKMOVPS Y0, Y15, (DI)
	VMASKMOVPS Y2, Y15, (DI)(CX*1)
	VMASKMOVPS Y4, Y15, (AX)
	VMASKMOVPS Y6, Y15, (AX)(CX*1)

tiledone:
	VZEROUPPER
	RET

// ROW_MAC adds b*av from the B vector at boff(R10) to acc, av in Y10.
#define ROW_MAC(boff, acc) \
	VMOVUPS boff(R10), Y8; \
	VMULPS  Y10, Y8, Y8; \
	VADDPS  acc, Y8, acc

// func gemmRowAVX2(a, b *float32, ldb int, o *float32, kc, w int)
//
// One row: 32-column chunks keep four accumulators (Y0–Y3) across the
// whole p range, then 8-column chunks one, then a masked chunk the last
// 1–7 columns. A p whose a value is ±0 is
// branched over, as in the Go loop.
TEXT ·gemmRowAVX2(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ ldb+16(FP), R8
	SHLQ $2, R8
	MOVQ o+24(FP), DI
	MOVQ kc+32(FP), CX
	MOVQ w+40(FP), BX

row32:
	CMPQ BX, $32
	JLT  row8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ CX, R11

loop32:
	MOVL  (R9), AX
	TESTL $0x7fffffff, AX
	JZ    next32
	VBROADCASTSS (R9), Y10
	ROW_MAC(0, Y0)
	ROW_MAC(32, Y1)
	ROW_MAC(64, Y2)
	ROW_MAC(96, Y3)

next32:
	ADDQ $4, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  loop32
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, BX
	JMP  row32

row8:
	CMPQ BX, $8
	JLT  rowmask
	VMOVUPS (DI), Y0
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ CX, R11

loop8r:
	MOVL  (R9), AX
	TESTL $0x7fffffff, AX
	JZ    next8r
	VBROADCASTSS (R9), Y10
	ROW_MAC(0, Y0)

next8r:
	ADDQ $4, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  loop8r
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, BX
	JMP  row8

rowmask:
	TESTQ BX, BX
	JZ    rowdone
	TAIL_MASK
	VMASKMOVPS (DI), Y15, Y0
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ CX, R11

loopmr:
	MOVL  (R9), AX
	TESTL $0x7fffffff, AX
	JZ    nextmr
	VBROADCASTSS (R9), Y10
	VMASKMOVPS   (R10), Y15, Y8
	VMULPS       Y10, Y8, Y8
	VADDPS       Y0, Y8, Y0

nextmr:
	ADDQ $4, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  loopmr
	VMASKMOVPS Y0, Y15, (DI)

rowdone:
	VZEROUPPER
	RET

// AVX2 int8 GEMM microkernels for qgemmBlock. The weights arrive packed
// as int16 pairs: dword j of pair row q holds w[2q][j] in its low word
// and w[2q+1][j] in its high word (zero past the block's last row and
// column). Each row's (a[2q]−za, a[2q+1]−za) is broadcast as one word
// pair, and VPMADDWD multiplies both pairs and adds them into one int32
// per column, which VPADDD adds to the accumulator. Every step is exact:
// |a−za| <= 255 and |w| <= 128, so a VPMADDWD pair sum stays far from
// its only saturating case, and VPADDD wraps modulo 2^32 as Go's int32
// addition does. Integer addition is associative, so the sum equals the
// Go loop's whatever the order or skipped zeros.

// QPAIR16 adds one row's pair products for 16 columns to acc0 and acc1:
// bcast (VPBROADCASTW for a pair, VPBROADCASTB for an odd k's last
// single p, whose high weight word is zero) loads a[p] and a[p+1] from
// aaddr; the packed weights are in Y8 and Y9, −za words in Y14.
#define QPAIR16(bcast, aaddr, acc0, acc1) \
	bcast        aaddr, X10; \
	VPMOVSXBW    X10, Y10; \
	VPSUBW       Y14, Y10, Y10; \
	VPMADDWD     Y8, Y10, Y11; \
	VPMADDWD     Y9, Y10, Y12; \
	VPADDD       Y11, acc0, acc0; \
	VPADDD       Y12, acc1, acc1

// QPAIR8 is QPAIR16 for 8 columns, weights in Y8.
#define QPAIR8(bcast, aaddr, acc) \
	bcast        aaddr, X10; \
	VPMOVSXBW    X10, Y10; \
	VPSUBW       Y14, Y10, Y10; \
	VPMADDWD     Y8, Y10, Y11; \
	VPADDD       Y11, acc, acc

// QZA broadcasts the zero point at zaaddr into Y14 as 16 words.
#define QZA(zaaddr) \
	MOVQ         zaaddr, AX; \
	VMOVD        AX, X14; \
	VPBROADCASTW X14, Y14

// func qgemmTile4AVX2(a *int8, lda, za int, pk *int32, ldp int, acc *int32, ldc, kc, nw int)
//
// Register use: SI a, R12/R13 one/three a rows in bytes, DX pk at the
// current column chunk, R8 a pair row in bytes, DI acc at the current
// column chunk, CX an acc row in bytes, BX columns left; R9, R10 and R11
// walk a, pk and the pair count within a chunk. The 4×16 tile keeps its
// 8 accumulators in Y0–Y7; the last 1–15 columns run 4×8 tiles whose
// accumulator loads and stores are masked to the columns left.
TEXT ·qgemmTile4AVX2(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R12
	LEAQ (R12)(R12*2), R13
	QZA(za+16(FP))
	MOVQ pk+24(FP), DX
	MOVQ ldp+32(FP), R8
	SHLQ $2, R8
	MOVQ acc+40(FP), DI
	MOVQ ldc+48(FP), CX
	SHLQ $2, CX
	MOVQ nw+64(FP), BX

qtile16:
	CMPQ BX, $16
	JLT  qtile8
	LEAQ (DI)(CX*2), AX
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU (DI)(CX*1), Y2
	VMOVDQU 32(DI)(CX*1), Y3
	VMOVDQU (AX), Y4
	VMOVDQU 32(AX), Y5
	VMOVDQU (AX)(CX*1), Y6
	VMOVDQU 32(AX)(CX*1), Y7
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ kc+56(FP), R11
	SHRQ $1, R11
	JZ   qodd16

qloop16:
	VMOVDQU (R10), Y8
	VMOVDQU 32(R10), Y9
	QPAIR16(VPBROADCASTW, (R9), Y0, Y1)
	QPAIR16(VPBROADCASTW, (R9)(R12*1), Y2, Y3)
	QPAIR16(VPBROADCASTW, (R9)(R12*2), Y4, Y5)
	QPAIR16(VPBROADCASTW, (R9)(R13*1), Y6, Y7)
	ADDQ $2, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  qloop16

qodd16:
	TESTQ $1, kc+56(FP)
	JZ    qstore16
	VMOVDQU (R10), Y8
	VMOVDQU 32(R10), Y9
	QPAIR16(VPBROADCASTB, (R9), Y0, Y1)
	QPAIR16(VPBROADCASTB, (R9)(R12*1), Y2, Y3)
	QPAIR16(VPBROADCASTB, (R9)(R12*2), Y4, Y5)
	QPAIR16(VPBROADCASTB, (R9)(R13*1), Y6, Y7)

qstore16:
	LEAQ (DI)(CX*2), AX
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, (DI)(CX*1)
	VMOVDQU Y3, 32(DI)(CX*1)
	VMOVDQU Y4, (AX)
	VMOVDQU Y5, 32(AX)
	VMOVDQU Y6, (AX)(CX*1)
	VMOVDQU Y7, 32(AX)(CX*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, BX
	JMP  qtile16

qtile8:
	TESTQ BX, BX
	JZ    qtiledone
	TAIL_MASK
	LEAQ (DI)(CX*2), AX
	VPMASKMOVD (DI), Y15, Y0
	VPMASKMOVD (DI)(CX*1), Y15, Y2
	VPMASKMOVD (AX), Y15, Y4
	VPMASKMOVD (AX)(CX*1), Y15, Y6
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ kc+56(FP), R11
	SHRQ $1, R11
	JZ   qodd8

qloop8:
	VMOVDQU (R10), Y8
	QPAIR8(VPBROADCASTW, (R9), Y0)
	QPAIR8(VPBROADCASTW, (R9)(R12*1), Y2)
	QPAIR8(VPBROADCASTW, (R9)(R12*2), Y4)
	QPAIR8(VPBROADCASTW, (R9)(R13*1), Y6)
	ADDQ $2, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  qloop8

qodd8:
	TESTQ $1, kc+56(FP)
	JZ    qstore8
	VMOVDQU (R10), Y8
	QPAIR8(VPBROADCASTB, (R9), Y0)
	QPAIR8(VPBROADCASTB, (R9)(R12*1), Y2)
	QPAIR8(VPBROADCASTB, (R9)(R12*2), Y4)
	QPAIR8(VPBROADCASTB, (R9)(R13*1), Y6)

qstore8:
	LEAQ (DI)(CX*2), AX
	VPMASKMOVD Y0, Y15, (DI)
	VPMASKMOVD Y2, Y15, (DI)(CX*1)
	VPMASKMOVD Y4, Y15, (AX)
	VPMASKMOVD Y6, Y15, (AX)(CX*1)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, BX
	JG   qtile8

qtiledone:
	VZEROUPPER
	RET

// func qgemmRowAVX2(a *int8, za int, pk *int32, ldp int, acc *int32, kc, nw int)
//
// One row in 8-column chunks, the last masked to the columns left.
TEXT ·qgemmRowAVX2(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	QZA(za+8(FP))
	MOVQ pk+16(FP), DX
	MOVQ ldp+24(FP), R8
	SHLQ $2, R8
	MOVQ acc+32(FP), DI
	MOVQ nw+48(FP), BX

qrow8:
	TAIL_MASK
	VPMASKMOVD (DI), Y15, Y0
	MOVQ SI, R9
	MOVQ DX, R10
	MOVQ kc+40(FP), R11
	SHRQ $1, R11
	JZ   qoddr

qloopr:
	VMOVDQU (R10), Y8
	QPAIR8(VPBROADCASTW, (R9), Y0)
	ADDQ $2, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  qloopr

qoddr:
	TESTQ $1, kc+40(FP)
	JZ    qstorer
	VMOVDQU (R10), Y8
	QPAIR8(VPBROADCASTB, (R9), Y0)

qstorer:
	VPMASKMOVD Y0, Y15, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, BX
	JG   qrow8

	VZEROUPPER
	RET
