// AVX2/FMA microkernels for the float32 inference layer. See
// kernels32.go for the determinism contract. In the NN-form GEMM every
// output element lives in one vector lane end to end: it accumulates its
// k-terms in strictly ascending k order through a single FMA chain, in
// every register-block shape below (4-row and 1-row variants), so
// a given (A row, B matrix) pair produces bit-identical results no
// matter how the call was batched, blocked, or sharded.

#include "textflag.h"

// maskTab is a sliding window of 8 set dwords followed by 8 clear ones;
// loading at offset 32-rem*4 yields a VMASKMOVPS mask covering the first
// rem lanes.
DATA maskTab<>+0(SB)/4, $0xffffffff
DATA maskTab<>+4(SB)/4, $0xffffffff
DATA maskTab<>+8(SB)/4, $0xffffffff
DATA maskTab<>+12(SB)/4, $0xffffffff
DATA maskTab<>+16(SB)/4, $0xffffffff
DATA maskTab<>+20(SB)/4, $0xffffffff
DATA maskTab<>+24(SB)/4, $0xffffffff
DATA maskTab<>+28(SB)/4, $0xffffffff
DATA maskTab<>+32(SB)/4, $0x00000000
DATA maskTab<>+36(SB)/4, $0x00000000
DATA maskTab<>+40(SB)/4, $0x00000000
DATA maskTab<>+44(SB)/4, $0x00000000
DATA maskTab<>+48(SB)/4, $0x00000000
DATA maskTab<>+52(SB)/4, $0x00000000
DATA maskTab<>+56(SB)/4, $0x00000000
DATA maskTab<>+60(SB)/4, $0x00000000
GLOBL maskTab<>(SB), RODATA, $64

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func f32NNBlockFMA(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, m, n, k, epi int)
//
// C[i][j] += sum over kc of A[i][kc]*B[kc][j] for i in [0,m), j in
// [0,n), with B stored [k][n]. Register blocking: four A rows by sixteen
// B columns, each k step four broadcast A scalars FMA'd against two B
// row vectors into eight accumulators; column remainders (<16) run as
// one full vector, one masked vector, or both in the same k pass (a
// narrow convolution panel pays its A broadcasts once); the 1..3 rows
// left after the last 4-row panel run single-row. epi != 0 fuses a ReLU
// (max with zero) into the store.
//
// Persistent registers: R11 = i, SI = j, Y13 = packed zeros. Everything
// else reloads from the frame per block, keeping the block bodies
// self-contained.
TEXT ·f32NNBlockFMA(SB), NOSPLIT, $0-80
	VXORPS Y13, Y13, Y13
	XORQ   R11, R11

row_loop:
	MOVQ m+48(FP), DX
	LEAQ 3(R11), AX
	CMPQ AX, DX
	JGE  row_single        // 0..3 rows left: finish them one at a time

	// ==== 4-row panel: amortizes each B row load over four A
	// broadcasts ====
	XORQ SI, SI

p4_col:
	MOVQ n+56(FP), DX
	LEAQ 15(SI), AX
	CMPQ AX, DX
	JGE  p4_coltail

	// ---- 4x16 block ----
	MOVQ  a+0(FP), DI
	MOVQ  lda+8(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	LEAQ  (DI)(AX*4), DI   // a0 = a + i*lda
	LEAQ  (DI)(DX*4), R15  // a1
	LEAQ  (R15)(DX*4), R12 // a2
	LEAQ  (R12)(DX*4), R13 // a3
	MOVQ  b+16(FP), BX
	LEAQ  (BX)(SI*4), BX
	MOVQ  ldb+24(FP), DX
	SHLQ  $2, DX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   k+64(FP), R9
	XORQ   AX, AX

b416_loop:
	VMOVUPS      (BX), Y10
	VMOVUPS      32(BX), Y11
	VBROADCASTSS (DI)(AX*4), Y8
	VBROADCASTSS (R15)(AX*4), Y9
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y11, Y8, Y1
	VFMADD231PS  Y10, Y9, Y2
	VFMADD231PS  Y11, Y9, Y3
	VBROADCASTSS (R12)(AX*4), Y8
	VBROADCASTSS (R13)(AX*4), Y9
	VFMADD231PS  Y10, Y8, Y4
	VFMADD231PS  Y11, Y8, Y5
	VFMADD231PS  Y10, Y9, Y6
	VFMADD231PS  Y11, Y9, Y7
	INCQ         AX
	ADDQ         DX, BX
	CMPQ         AX, R9
	JL           b416_loop

	MOVQ  c+32(FP), CX
	MOVQ  ldc+40(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	ADDQ  SI, AX
	LEAQ  (CX)(AX*4), CX   // c0
	SHLQ  $2, DX
	LEAQ  (CX)(DX*1), R10  // c1
	LEAQ  (R10)(DX*1), R8  // c2
	LEAQ  (R8)(DX*1), R15  // c3
	VADDPS (CX), Y0, Y0
	VADDPS 32(CX), Y1, Y1
	VADDPS (R10), Y2, Y2
	VADDPS 32(R10), Y3, Y3
	VADDPS (R8), Y4, Y4
	VADDPS 32(R8), Y5, Y5
	VADDPS (R15), Y6, Y6
	VADDPS 32(R15), Y7, Y7
	MOVQ   epi+72(FP), AX
	TESTQ  AX, AX
	JZ     b416_store
	VMAXPS Y13, Y0, Y0
	VMAXPS Y13, Y1, Y1
	VMAXPS Y13, Y2, Y2
	VMAXPS Y13, Y3, Y3
	VMAXPS Y13, Y4, Y4
	VMAXPS Y13, Y5, Y5
	VMAXPS Y13, Y6, Y6
	VMAXPS Y13, Y7, Y7

b416_store:
	VMOVUPS Y0, (CX)
	VMOVUPS Y1, 32(CX)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, 32(R10)
	VMOVUPS Y4, (R8)
	VMOVUPS Y5, 32(R8)
	VMOVUPS Y6, (R15)
	VMOVUPS Y7, 32(R15)
	ADDQ    $16, SI
	JMP     p4_col

p4_coltail:
	MOVQ n+56(FP), DX
	CMPQ SI, DX
	JGE  p4_done
	SUBQ SI, DX            // cols left
	CMPQ DX, $8
	JG   p4_col8m          // 9..15: one full vector + one masked
	JE   p4_col8

	// ---- 4 x rem (1..7, masked) block ----
	MOVQ    DX, R14
	LEAQ    maskTab<>+32(SB), R10
	SHLQ    $2, DX
	SUBQ    DX, R10
	VMOVUPS (R10), Y12

	MOVQ  a+0(FP), DI
	MOVQ  lda+8(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	LEAQ  (DI)(AX*4), DI
	LEAQ  (DI)(DX*4), R15
	LEAQ  (R15)(DX*4), R12
	LEAQ  (R12)(DX*4), R13
	MOVQ  b+16(FP), BX
	LEAQ  (BX)(SI*4), BX
	MOVQ  ldb+24(FP), DX
	SHLQ  $2, DX

	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
	MOVQ   k+64(FP), R9
	XORQ   AX, AX

b4m_loop:
	VMASKMOVPS   (BX), Y12, Y10
	VBROADCASTSS (DI)(AX*4), Y8
	VBROADCASTSS (R15)(AX*4), Y9
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y10, Y9, Y2
	VBROADCASTSS (R12)(AX*4), Y8
	VBROADCASTSS (R13)(AX*4), Y9
	VFMADD231PS  Y10, Y8, Y4
	VFMADD231PS  Y10, Y9, Y6
	INCQ         AX
	ADDQ         DX, BX
	CMPQ         AX, R9
	JL           b4m_loop

	MOVQ  c+32(FP), CX
	MOVQ  ldc+40(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	ADDQ  SI, AX
	LEAQ  (CX)(AX*4), CX
	SHLQ  $2, DX
	LEAQ  (CX)(DX*1), R10
	LEAQ  (R10)(DX*1), R8
	LEAQ  (R8)(DX*1), R15
	VMASKMOVPS (CX), Y12, Y8
	VADDPS     Y8, Y0, Y0
	VMASKMOVPS (R10), Y12, Y9
	VADDPS     Y9, Y2, Y2
	VMASKMOVPS (R8), Y12, Y8
	VADDPS     Y8, Y4, Y4
	VMASKMOVPS (R15), Y12, Y9
	VADDPS     Y9, Y6, Y6
	MOVQ       epi+72(FP), AX
	TESTQ      AX, AX
	JZ         b4m_store
	VMAXPS     Y13, Y0, Y0
	VMAXPS     Y13, Y2, Y2
	VMAXPS     Y13, Y4, Y4
	VMAXPS     Y13, Y6, Y6

b4m_store:
	VMASKMOVPS Y0, Y12, (CX)
	VMASKMOVPS Y2, Y12, (R10)
	VMASKMOVPS Y4, Y12, (R8)
	VMASKMOVPS Y6, Y12, (R15)
	ADDQ       R14, SI
	JMP        p4_coltail

	// ---- 4x8 (full-vector remainder) block ----
p4_col8:
	MOVQ  a+0(FP), DI
	MOVQ  lda+8(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	LEAQ  (DI)(AX*4), DI
	LEAQ  (DI)(DX*4), R15
	LEAQ  (R15)(DX*4), R12
	LEAQ  (R12)(DX*4), R13
	MOVQ  b+16(FP), BX
	LEAQ  (BX)(SI*4), BX
	MOVQ  ldb+24(FP), DX
	SHLQ  $2, DX

	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6
	MOVQ   k+64(FP), R9
	XORQ   AX, AX

b48_loop:
	VMOVUPS      (BX), Y10
	VBROADCASTSS (DI)(AX*4), Y8
	VBROADCASTSS (R15)(AX*4), Y9
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y10, Y9, Y2
	VBROADCASTSS (R12)(AX*4), Y8
	VBROADCASTSS (R13)(AX*4), Y9
	VFMADD231PS  Y10, Y8, Y4
	VFMADD231PS  Y10, Y9, Y6
	INCQ         AX
	ADDQ         DX, BX
	CMPQ         AX, R9
	JL           b48_loop

	MOVQ  c+32(FP), CX
	MOVQ  ldc+40(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	ADDQ  SI, AX
	LEAQ  (CX)(AX*4), CX
	SHLQ  $2, DX
	LEAQ  (CX)(DX*1), R10
	LEAQ  (R10)(DX*1), R8
	LEAQ  (R8)(DX*1), R15
	VADDPS (CX), Y0, Y0
	VADDPS (R10), Y2, Y2
	VADDPS (R8), Y4, Y4
	VADDPS (R15), Y6, Y6
	MOVQ   epi+72(FP), AX
	TESTQ  AX, AX
	JZ     b48_store
	VMAXPS Y13, Y0, Y0
	VMAXPS Y13, Y2, Y2
	VMAXPS Y13, Y4, Y4
	VMAXPS Y13, Y6, Y6

b48_store:
	VMOVUPS Y0, (CX)
	VMOVUPS Y2, (R10)
	VMOVUPS Y4, (R8)
	VMOVUPS Y6, (R15)
	ADDQ    $8, SI
	JMP     p4_coltail

	// ---- 4 x (8+rem) combined block, 9..15 columns ----
p4_col8m:
	MOVQ    DX, R14        // advance = cols left
	SUBQ    $8, DX         // rem = left - 8 (1..7)
	LEAQ    maskTab<>+32(SB), R10
	SHLQ    $2, DX
	SUBQ    DX, R10
	VMOVUPS (R10), Y12

	MOVQ  a+0(FP), DI
	MOVQ  lda+8(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	LEAQ  (DI)(AX*4), DI
	LEAQ  (DI)(DX*4), R15
	LEAQ  (R15)(DX*4), R12
	LEAQ  (R12)(DX*4), R13
	MOVQ  b+16(FP), BX
	LEAQ  (BX)(SI*4), BX
	MOVQ  ldb+24(FP), DX
	SHLQ  $2, DX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   k+64(FP), R9
	XORQ   AX, AX

b48m_loop:
	VMOVUPS      (BX), Y10
	VMASKMOVPS   32(BX), Y12, Y11
	VBROADCASTSS (DI)(AX*4), Y8
	VBROADCASTSS (R15)(AX*4), Y9
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y11, Y8, Y1
	VFMADD231PS  Y10, Y9, Y2
	VFMADD231PS  Y11, Y9, Y3
	VBROADCASTSS (R12)(AX*4), Y8
	VBROADCASTSS (R13)(AX*4), Y9
	VFMADD231PS  Y10, Y8, Y4
	VFMADD231PS  Y11, Y8, Y5
	VFMADD231PS  Y10, Y9, Y6
	VFMADD231PS  Y11, Y9, Y7
	INCQ         AX
	ADDQ         DX, BX
	CMPQ         AX, R9
	JL           b48m_loop

	MOVQ  c+32(FP), CX
	MOVQ  ldc+40(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	ADDQ  SI, AX
	LEAQ  (CX)(AX*4), CX
	SHLQ  $2, DX
	LEAQ  (CX)(DX*1), R10
	LEAQ  (R10)(DX*1), R8
	LEAQ  (R8)(DX*1), R15
	VADDPS     (CX), Y0, Y0
	VMASKMOVPS 32(CX), Y12, Y9
	VADDPS     Y9, Y1, Y1
	VADDPS     (R10), Y2, Y2
	VMASKMOVPS 32(R10), Y12, Y9
	VADDPS     Y9, Y3, Y3
	VADDPS     (R8), Y4, Y4
	VMASKMOVPS 32(R8), Y12, Y9
	VADDPS     Y9, Y5, Y5
	VADDPS     (R15), Y6, Y6
	VMASKMOVPS 32(R15), Y12, Y9
	VADDPS     Y9, Y7, Y7
	MOVQ       epi+72(FP), AX
	TESTQ      AX, AX
	JZ         b48m_store
	VMAXPS     Y13, Y0, Y0
	VMAXPS     Y13, Y1, Y1
	VMAXPS     Y13, Y2, Y2
	VMAXPS     Y13, Y3, Y3
	VMAXPS     Y13, Y4, Y4
	VMAXPS     Y13, Y5, Y5
	VMAXPS     Y13, Y6, Y6
	VMAXPS     Y13, Y7, Y7

b48m_store:
	VMOVUPS    Y0, (CX)
	VMASKMOVPS Y1, Y12, 32(CX)
	VMOVUPS    Y2, (R10)
	VMASKMOVPS Y3, Y12, 32(R10)
	VMOVUPS    Y4, (R8)
	VMASKMOVPS Y5, Y12, 32(R8)
	VMOVUPS    Y6, (R15)
	VMASKMOVPS Y7, Y12, 32(R15)
	ADDQ       R14, SI
	JMP        p4_coltail

p4_done:
	ADDQ $4, R11
	JMP  row_loop

row_single:
	MOVQ m+48(FP), DX
	CMPQ R11, DX
	JGE  done
	XORQ SI, SI

p1_col:
	MOVQ n+56(FP), DX
	LEAQ 15(SI), AX
	CMPQ AX, DX
	JGE  p1_coltail

	// ---- 1x16 block ----
	MOVQ  a+0(FP), DI
	MOVQ  lda+8(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	LEAQ  (DI)(AX*4), DI
	MOVQ  b+16(FP), BX
	LEAQ  (BX)(SI*4), BX
	MOVQ  ldb+24(FP), DX
	SHLQ  $2, DX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   k+64(FP), R9
	XORQ   AX, AX

b116_loop:
	VBROADCASTSS (DI)(AX*4), Y8
	VMOVUPS      (BX), Y10
	VMOVUPS      32(BX), Y11
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y11, Y8, Y1
	INCQ         AX
	ADDQ         DX, BX
	CMPQ         AX, R9
	JL           b116_loop

	MOVQ  c+32(FP), CX
	MOVQ  ldc+40(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	ADDQ  SI, AX
	LEAQ  (CX)(AX*4), CX
	VADDPS (CX), Y0, Y0
	VADDPS 32(CX), Y1, Y1
	MOVQ   epi+72(FP), AX
	TESTQ  AX, AX
	JZ     b116_store
	VMAXPS Y13, Y0, Y0
	VMAXPS Y13, Y1, Y1

b116_store:
	VMOVUPS Y0, (CX)
	VMOVUPS Y1, 32(CX)
	ADDQ    $16, SI
	JMP     p1_col

p1_coltail:
	MOVQ n+56(FP), DX
	CMPQ SI, DX
	JGE  p1_rownext
	SUBQ SI, DX
	CMPQ DX, $8
	JGE  p1_col8

	// ---- 1 x rem (1..7, masked) block ----
	MOVQ    $8, R8
	CMPQ    DX, R8
	CMOVQGT R8, DX
	MOVQ    DX, R14
	LEAQ    maskTab<>+32(SB), R10
	SHLQ    $2, DX
	SUBQ    DX, R10
	VMOVUPS (R10), Y12

	MOVQ  a+0(FP), DI
	MOVQ  lda+8(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	LEAQ  (DI)(AX*4), DI
	MOVQ  b+16(FP), BX
	LEAQ  (BX)(SI*4), BX
	MOVQ  ldb+24(FP), DX
	SHLQ  $2, DX

	VXORPS Y0, Y0, Y0
	MOVQ   k+64(FP), R9
	XORQ   AX, AX

b1m_loop:
	VBROADCASTSS (DI)(AX*4), Y8
	VMASKMOVPS   (BX), Y12, Y10
	VFMADD231PS  Y10, Y8, Y0
	INCQ         AX
	ADDQ         DX, BX
	CMPQ         AX, R9
	JL           b1m_loop

	MOVQ  c+32(FP), CX
	MOVQ  ldc+40(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	ADDQ  SI, AX
	LEAQ  (CX)(AX*4), CX
	VMASKMOVPS (CX), Y12, Y8
	VADDPS     Y8, Y0, Y0
	MOVQ       epi+72(FP), AX
	TESTQ      AX, AX
	JZ         b1m_store
	VMAXPS     Y13, Y0, Y0

b1m_store:
	VMASKMOVPS Y0, Y12, (CX)
	ADDQ       R14, SI
	JMP        p1_coltail

	// ---- 1x8 (full-vector remainder) block ----
p1_col8:
	MOVQ  a+0(FP), DI
	MOVQ  lda+8(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	LEAQ  (DI)(AX*4), DI
	MOVQ  b+16(FP), BX
	LEAQ  (BX)(SI*4), BX
	MOVQ  ldb+24(FP), DX
	SHLQ  $2, DX

	VXORPS Y0, Y0, Y0
	MOVQ   k+64(FP), R9
	XORQ   AX, AX

b18_loop:
	VBROADCASTSS (DI)(AX*4), Y8
	VMOVUPS      (BX), Y10
	VFMADD231PS  Y10, Y8, Y0
	INCQ         AX
	ADDQ         DX, BX
	CMPQ         AX, R9
	JL           b18_loop

	MOVQ  c+32(FP), CX
	MOVQ  ldc+40(FP), DX
	MOVQ  R11, AX
	IMULQ DX, AX
	ADDQ  SI, AX
	LEAQ  (CX)(AX*4), CX
	VADDPS (CX), Y0, Y0
	MOVQ   epi+72(FP), AX
	TESTQ  AX, AX
	JZ     b18_store
	VMAXPS Y13, Y0, Y0

b18_store:
	VMOVUPS Y0, (CX)
	ADDQ    $8, SI
	JMP     p1_coltail

p1_rownext:
	INCQ R11
	JMP  row_single

done:
	VZEROUPPER
	RET

// func normLog1pAVX2(dst *float32, src *float64, n int, nv *float32)
//
// dst[i] = (log1p(float32(src[i])) - nv[i&7]) * nv[8+(i&7)] for i in
// [0,n), n a positive multiple of 8. The log1p is the same Cephes
// polynomial as the scalar logf, with the mantissa/exponent split done
// branch-free via the sqrt(2)/2 bit-offset trick; the coefficient table
// lives in the Go-side normConsts (kernels32_amd64.go).
//
// Lane layout of nv: eight mean values then eight 1/std values (the
// two-channel normalization pattern repeated; see makeNormVec).
TEXT ·normLog1pAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ nv+24(FP), R8
	VMOVUPS (R8), Y14          // mean lanes
	VMOVUPS 32(R8), Y15        // inv lanes
	LEAQ    ·normConsts(SB), R9
	VMOVUPS 384(R9), Y13       // 1.0

nl_loop:
	VCVTPD2PSY (SI), X0        // 4 doubles -> 4 floats
	VCVTPD2PSY 32(SI), X1
	VINSERTF128 $1, X1, Y0, Y0
	VADDPS Y13, Y0, Y0         // y = 1 + x

	// Branch-free split y = m * 2^e, m in [sqrt(2)/2, sqrt(2)).
	VPADDD 416(R9), Y0, Y1     // ibits = bits(y) + (bits(1.0) - bits(sqrt2/2))
	VPSRLD $23, Y1, Y2
	VPSUBD 480(R9), Y2, Y2     // e = biased exponent - 127
	VCVTDQ2PS Y2, Y2
	VPAND  448(R9), Y1, Y1     // mantissa field of ibits
	VPADDD 512(R9), Y1, Y1     // m bits = mantissa + bits(sqrt2/2)
	VSUBPS Y13, Y1, Y3         // z = m - 1

	VMOVUPS     0(R9), Y4      // p = c0, then Horner through c8
	VFMADD213PS 32(R9), Y3, Y4
	VFMADD213PS 64(R9), Y3, Y4
	VFMADD213PS 96(R9), Y3, Y4
	VFMADD213PS 128(R9), Y3, Y4
	VFMADD213PS 160(R9), Y3, Y4
	VFMADD213PS 192(R9), Y3, Y4
	VFMADD213PS 224(R9), Y3, Y4
	VFMADD213PS 256(R9), Y3, Y4

	VMULPS Y3, Y3, Y5          // zz
	VMULPS Y3, Y5, Y6          // z*zz
	VMULPS Y4, Y6, Y6          // y = z*zz*p
	VFMADD231PS  288(R9), Y2, Y6 // y += e * ln2 low part
	VFNMADD231PS 320(R9), Y5, Y6 // y -= 0.5*zz
	VADDPS Y3, Y6, Y6          // y += z
	VFMADD231PS  352(R9), Y2, Y6 // y += e * ln2 high part

	VSUBPS Y14, Y6, Y6         // (y - mean) * inv
	VMULPS Y15, Y6, Y6
	VMOVUPS Y6, (DI)

	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  nl_loop
	VZEROUPPER
	RET

// Vectorized gate activations. Both kernels share the branch-free expf
// core: magic-number rounding (adding 1.5*2^23 leaves round(x*log2e) in
// the low mantissa bits), the scalar expf's Cephes polynomial, and
// exponent reassembly through the float bit pattern. Arguments below the
// underflow cutoff are zeroed by mask instead of by branch; arguments
// above the overflow cutoff clamp to it (exp(88.02) is finite in
// float32). Coefficients live in the Go-side expConsts table
// (kernels32_amd64.go); offsets are hard-coded here.
//
// The core consumes Y0 (argument) and leaves exp(Y0) in Y0, using
// Y1-Y3 and the keep-mask in Y7; R9 holds &expConsts.

// func sigmoidAVX2(x *float32, n int)
//
// x[i] = 1/(1+exp(-x[i])) in place; n a positive multiple of 8.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	LEAQ ·expConsts(SB), R9

sg_loop:
	VMOVUPS (DI), Y0
	VXORPS  480(R9), Y0, Y0      // -x

	// ---- expf core ----
	VMINPS       352(R9), Y0, Y0 // clamp to max arg
	VCMPPS       $0x0D, 384(R9), Y0, Y7 // keep-mask: arg >= min arg
	VMOVUPS      32(R9), Y1      // t = magic
	VFMADD231PS  0(R9), Y0, Y1   // t += arg*log2e
	VPSUBD       416(R9), Y1, Y2 // bits(t) - (magicbits - 127) = n+127
	VPSLLD       $23, Y2, Y2     // 2^n bit pattern
	VSUBPS       32(R9), Y1, Y1  // rf = t - magic
	VFNMADD231PS 64(R9), Y1, Y0  // r = arg - rf*ln2hi
	VFNMADD231PS 96(R9), Y1, Y0  // r -= rf*ln2lo
	VMOVUPS      128(R9), Y3     // p = c0, Horner through c5
	VFMADD213PS  160(R9), Y0, Y3
	VFMADD213PS  192(R9), Y0, Y3
	VFMADD213PS  224(R9), Y0, Y3
	VFMADD213PS  256(R9), Y0, Y3
	VFMADD213PS  288(R9), Y0, Y3
	VMULPS       Y0, Y3, Y3      // p*r
	VFMADD213PS  Y0, Y0, Y3      // p*r*r + r
	VADDPS       320(R9), Y3, Y3 // + 1
	VMULPS       Y2, Y3, Y0      // * 2^n
	VANDPS       Y7, Y0, Y0      // underflow to exactly 0
	// ---- end expf core ----

	VADDPS  320(R9), Y0, Y0      // e + 1
	VMOVUPS 320(R9), Y1
	VDIVPS  Y0, Y1, Y0           // 1/(e+1)
	VMOVUPS Y0, (DI)

	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  sg_loop
	VZEROUPPER
	RET

// func tanhAVX2(x *float32, n int)
//
// x[i] = tanh(x[i]) = 1 - 2/(exp(2x)+1) in place; n a positive multiple
// of 8. No saturation branch: the expf core's own clamp drives the
// quotient to 0 or 2 at the extremes, giving exactly +/-1.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	LEAQ ·expConsts(SB), R9

th_loop:
	VMOVUPS (DI), Y0
	VADDPS  Y0, Y0, Y0           // 2x

	// ---- expf core ----
	VMINPS       352(R9), Y0, Y0
	VCMPPS       $0x0D, 384(R9), Y0, Y7
	VMOVUPS      32(R9), Y1
	VFMADD231PS  0(R9), Y0, Y1
	VPSUBD       416(R9), Y1, Y2
	VPSLLD       $23, Y2, Y2
	VSUBPS       32(R9), Y1, Y1
	VFNMADD231PS 64(R9), Y1, Y0
	VFNMADD231PS 96(R9), Y1, Y0
	VMOVUPS      128(R9), Y3
	VFMADD213PS  160(R9), Y0, Y3
	VFMADD213PS  192(R9), Y0, Y3
	VFMADD213PS  224(R9), Y0, Y3
	VFMADD213PS  256(R9), Y0, Y3
	VFMADD213PS  288(R9), Y0, Y3
	VMULPS       Y0, Y3, Y3
	VFMADD213PS  Y0, Y0, Y3
	VADDPS       320(R9), Y3, Y3
	VMULPS       Y2, Y3, Y0
	VANDPS       Y7, Y0, Y0
	// ---- end expf core ----

	VADDPS  320(R9), Y0, Y0      // e + 1
	VMOVUPS 448(R9), Y1          // 2.0
	VDIVPS  Y0, Y1, Y0           // 2/(e+1)
	VMOVUPS 320(R9), Y1
	VSUBPS  Y0, Y1, Y0           // 1 - 2/(e+1)
	VMOVUPS Y0, (DI)

	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  th_loop
	VZEROUPPER
	RET
