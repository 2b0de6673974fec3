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
// accumulators in Y0–Y7; a last 8-column chunk uses a 4×8 tile.
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
	CMPQ BX, $8
	JLT  tiledone
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
// whole p range, then 8-column chunks one. A p whose a value is ±0 is
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
	JLT  rowdone
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

rowdone:
	VZEROUPPER
	RET
