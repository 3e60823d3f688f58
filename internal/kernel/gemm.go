package kernel

import (
	"fmt"
	"sync"
)

// Micro-kernel families. Every family computes one mr×nr tile of C from
// operands read in place (see callKernel); the asm kernels are the SIMD
// forms and the generic one the pure-Go fallback of the same contract.
const (
	isaGeneric = iota
	isaAVX2
	isaAVX512
)

// isaDims returns the register-tile shape of a micro-kernel family.
func isaDims(isa int) (mr, nr int) {
	switch isa {
	case isaAVX512:
		return 8, 16
	case isaAVX2:
		return 6, 8
	default:
		return 4, 4
	}
}

// isa resolves the micro-kernel family for this config on this CPU.
func (c Config) isa() int {
	if c.ForceGeneric {
		return isaGeneric
	}
	if hasAVX512 {
		return isaAVX512
	}
	if hasAVX2 {
		return isaAVX2
	}
	return isaGeneric
}

// PackedB is op(B) repacked into zero-padded nr-wide column panels. The
// micro-kernels read a plain row-major B in place, so Gemm packs only a
// transposed B (whose rows are strided in memory); hot loops that reuse
// one right-hand side across many calls (the LSTM recurrence reuses Wh
// and Whᵀ for every timestep) pack it once with PackB and call
// GemmPacked, which also spares them the per-call packing of a ragged
// last panel.
//
// A PackedB is tied to the micro-kernel family of the Config that
// packed it; use it with a Config resolving to the same family.
type PackedB struct {
	k, n   int
	isa    int
	mr, nr int
	buf    []float64
	// panel and rs place op(B) in buf: column panel jb starts at
	// buf[jb*panel] and its row p at +p*rs. Packed panels are (k·nr, nr).
	// inPlace marks Gemm's unpacked view of a row-major B, (nr, stride),
	// whose ragged last panel is zero-padded per call.
	panel, rs int
	inPlace   bool
}

// PackB packs op(B) (k×n, where op is the identity or the transpose)
// into pb, reusing its buffer when large enough. A nil pb allocates a
// fresh one. Returns pb.
//
//podnas:hotpath
func (c Config) PackB(pb *PackedB, b Mat, transB bool) *PackedB {
	if !b.ok() {
		panic(fmt.Sprintf("kernel: PackB bad view %dx%d stride %d over %d floats", b.R, b.C, b.Stride, len(b.Data)))
	}
	k, n := b.R, b.C
	if transB {
		k, n = b.C, b.R
	}
	if pb == nil {
		pb = &PackedB{} //podnas:allow hotalloc nil-pb lazy construction; steady-state callers pass a reused pb
	}
	isa := c.isa()
	mr, nr := isaDims(isa)
	nb := (n + nr - 1) / nr
	*pb = PackedB{k: k, n: n, isa: isa, mr: mr, nr: nr, buf: grow(pb.buf, nb*k*nr), panel: k * nr, rs: nr}
	for jb := 0; jb < nb; jb++ {
		j0 := jb * nr
		panel := pb.buf[jb*k*nr : (jb+1)*k*nr]
		if transB {
			w := min(nr, n-j0)
			for p := 0; p < k; p++ {
				drow := panel[p*nr : p*nr+nr]
				for jr := 0; jr < w; jr++ {
					drow[jr] = b.Data[(j0+jr)*b.Stride+p]
				}
				clear(drow[w:])
			}
		} else {
			packPanel(panel, b, j0, nr)
		}
	}
	return pb
}

// packPanel copies columns [j0, j0+nr) of every row of b into the p-major
// panel dst (len b.R·nr), zero-padding columns past b.C.
func packPanel(dst []float64, b Mat, j0, nr int) {
	w := min(nr, b.C-j0)
	for p := 0; p < b.R; p++ {
		drow := dst[p*nr : p*nr+nr]
		copy(drow, b.Data[p*b.Stride+j0:p*b.Stride+j0+w])
		clear(drow[w:])
	}
}

// grow returns buf resized to n floats, reallocating only when its
// capacity falls short; pack buffers and pooled scratch reach their
// steady-state size after the first calls and are reused from then on.
// It is kept out of line so escape analysis reports its one allocation
// here rather than at every caller.
//
//podnas:hotpath
//go:noinline
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n) //podnas:allow hotalloc pack-buffer and pooled-scratch growth only; reused across calls
	}
	return buf[:n]
}

// scratch is the per-worker edge-tile buffer set, pooled so steady-state
// GEMM calls allocate nothing: a zero-padded A panel for a ragged row
// block, a zero-padded B panel for the ragged last column panel of an
// in-place B, and the tile the kernel writes for either.
type scratch struct {
	ap, bp []float64
	ct     [8 * 16]float64 // mrMax × nrMax edge tile
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

var packPool = sync.Pool{New: func() any { return &PackedB{} }}

// Gemm computes dst = op(A)·op(B) (or dst += when accumulate is true)
// where op is the identity or the transpose per the trans flags. dst
// must be preshaped (m×n) and must not alias a or b. This is the single
// entry point the tensor MatMul* family wraps. A and a non-transposed B
// are read in place; only a transposed B is packed first.
//
//podnas:hotpath
func (c Config) Gemm(dst, a, b Mat, transA, transB, accumulate bool) {
	if transB {
		pb := packPool.Get().(*PackedB)
		pb = c.PackB(pb, b, true)
		c.gemm(dst, a, transA, *pb, accumulate)
		packPool.Put(pb)
		return
	}
	if !b.ok() {
		panic(fmt.Sprintf("kernel: Gemm bad view b %dx%d/%d", b.R, b.C, b.Stride))
	}
	isa := c.isa()
	mr, nr := isaDims(isa)
	c.gemm(dst, a, transA, PackedB{k: b.R, n: b.C, isa: isa, mr: mr, nr: nr, buf: b.Data, panel: nr, rs: b.Stride, inPlace: true}, accumulate)
}

// Gemm runs Config.Gemm with the default policy (auto SIMD, GOMAXPROCS
// workers).
//
//podnas:hotpath
func Gemm(dst, a, b Mat, transA, transB, accumulate bool) {
	Config{}.Gemm(dst, a, b, transA, transB, accumulate)
}

// GemmPacked is Gemm with the right-hand side already packed by PackB.
//
//podnas:hotpath
func (c Config) GemmPacked(dst, a Mat, transA bool, pb *PackedB, accumulate bool) {
	c.gemm(dst, a, transA, *pb, accumulate)
}

// gemm is the shared body of Gemm and GemmPacked; b is packed or an
// in-place view (PackedB.inPlace).
//
//podnas:hotpath
func (c Config) gemm(dst, a Mat, transA bool, b PackedB, accumulate bool) {
	if !dst.ok() || !a.ok() {
		panic(fmt.Sprintf("kernel: Gemm bad view dst %dx%d/%d a %dx%d/%d", dst.R, dst.C, dst.Stride, a.R, a.C, a.Stride))
	}
	m, k := a.R, a.C
	if transA {
		m, k = a.C, a.R
	}
	n := b.n
	if k != b.k || dst.R != m || dst.C != n {
		panic(fmt.Sprintf("kernel: Gemm shape mismatch op(A) %dx%d, B %dx%d, dst %dx%d", m, k, b.k, b.n, dst.R, dst.C))
	}
	gemmCalls.Add(1)
	gemmFLOPs.Add(2 * uint64(m) * uint64(n) * uint64(k))
	if m == 0 || n == 0 {
		return
	}
	// Serial fast path avoids the escaping closure (one heap alloc per
	// call) that the goroutine fan-out needs.
	w := c.workers()
	if w <= 1 || m*2*k*n < c.threshold() {
		gemmRowBlock(dst, a, transA, b, accumulate, 0, m)
		return
	}
	c.parallelRows(m, 2*k*n, b.mr, func(lo, hi int) { //podnas:allow hotalloc goroutine fan-out closure; the serial fast path above avoids it
		gemmRowBlock(dst, a, transA, b, accumulate, lo, hi)
	})
}

// gemmRowBlock computes rows [lo, hi) of dst — the per-worker unit of
// gemm. Row blocks are disjoint, so any partition of [0, m) into aligned
// blocks yields bit-identical results. Full mr×nr tiles run the kernel
// straight on the operands and dst; an edge tile runs it on zero-padded
// copies of its ragged operand panels into a scratch tile and folds the
// live corner into dst.
//
//podnas:hotpath
func gemmRowBlock(dst, a Mat, transA bool, b PackedB, accumulate bool, lo, hi int) {
	k, n := b.k, b.n
	mr, nr := b.mr, b.nr
	if k == 0 {
		// op(A)·op(B) is the zero matrix: store mode clears dst.
		if !accumulate {
			for i := lo; i < hi; i++ {
				clear(dst.Data[i*dst.Stride : i*dst.Stride+n])
			}
		}
		return
	}
	// Element (i, p) of op(A) lies at a.Data[i*ai+p*ap].
	ai, ap := a.Stride, 1
	if transA {
		ai, ap = 1, a.Stride
	}
	s := scratchPool.Get().(*scratch)
	full := n - n%nr // columns covered by full panels
	if b.inPlace && full < n {
		s.bp = grow(s.bp, k*nr)
		packPanel(s.bp, Mat{R: k, C: n, Stride: b.rs, Data: b.buf}, full, nr)
	}
	for i0 := lo; i0 < hi; i0 += mr {
		h := min(mr, hi-i0)
		abuf, asp, asi := a.Data[i0*ai:], ap, ai
		if h < mr {
			s.ap = grow(s.ap, k*mr)
			abuf, asp, asi = s.ap, mr, 1
			for p := 0; p < k; p++ {
				for ir := 0; ir < h; ir++ {
					abuf[p*mr+ir] = a.Data[(i0+ir)*ai+p*ap]
				}
				clear(abuf[p*mr+h : p*mr+mr])
			}
		}
		for j0 := 0; j0 < n; j0 += nr {
			bbuf, bsp := b.buf[j0/nr*b.panel:], b.rs
			if j0 == full && b.inPlace {
				bbuf, bsp = s.bp, nr
			}
			if h == mr && j0 < full {
				callKernel(b.isa, dst.Data[i0*dst.Stride+j0:], abuf, bbuf, k, dst.Stride, asp, asi, bsp, accumulate)
				continue
			}
			callKernel(b.isa, s.ct[:], abuf, bbuf, k, nr, asp, asi, bsp, false)
			w := min(nr, n-j0)
			for ir := 0; ir < h; ir++ {
				drow := dst.Data[(i0+ir)*dst.Stride+j0 : (i0+ir)*dst.Stride+j0+w]
				trow := s.ct[ir*nr : ir*nr+w]
				if accumulate {
					for jr := range drow {
						drow[jr] += trow[jr]
					}
				} else {
					copy(drow, trow)
				}
			}
		}
	}
	scratchPool.Put(s)
}

// callKernel runs one register tile of the given family over kc steps:
// C(mr×nr, row stride ldc) = A·B, or += when accumulate is set, where
// A element (i, p) sits at a[p*sap+i*sai] and B row p at b[p*sbp:] (all
// strides in floats). A row-major A is (1, lda), a transposed one
// (lda, 1), a packed panel (mr, 1); B rows are its row stride apart in
// place or nr apart when packed. The accumulators start at +0, so store
// mode writes exactly what zeroing C and accumulating would.
func callKernel(isa int, c, a, b []float64, kc, ldc, sap, sai, sbp int, accumulate bool) {
	switch isa {
	case isaAVX512:
		gemmKernel8x16(&c[0], &a[0], &b[0], int64(kc), int64(ldc)*8, int64(sap)*8, int64(sai)*8, int64(sbp)*8, accumulate)
	case isaAVX2:
		gemmKernel6x8(&c[0], &a[0], &b[0], int64(kc), int64(ldc)*8, int64(sap)*8, int64(sai)*8, int64(sbp)*8, accumulate)
	default:
		gemmKernel4x4(c, a, b, kc, ldc, sap, sai, sbp, accumulate)
	}
}

// gemmKernel4x4 is the pure-Go micro-kernel (mr=nr=4): sixteen scalar
// accumulators the compiler keeps in registers.
func gemmKernel4x4(c, a, b []float64, kc, ldc, sap, sai, sbp int, accumulate bool) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for p := 0; p < kc; p++ {
		ar := a[p*sap:]
		br := b[p*sbp : p*sbp+4]
		a0, a1, a2, a3 := ar[0], ar[sai], ar[2*sai], ar[3*sai]
		b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	r0, r1, r2, r3 := c[0:4], c[ldc:ldc+4], c[2*ldc:2*ldc+4], c[3*ldc:3*ldc+4]
	if accumulate {
		r0[0], r0[1], r0[2], r0[3] = r0[0]+c00, r0[1]+c01, r0[2]+c02, r0[3]+c03
		r1[0], r1[1], r1[2], r1[3] = r1[0]+c10, r1[1]+c11, r1[2]+c12, r1[3]+c13
		r2[0], r2[1], r2[2], r2[3] = r2[0]+c20, r2[1]+c21, r2[2]+c22, r2[3]+c23
		r3[0], r3[1], r3[2], r3[3] = r3[0]+c30, r3[1]+c31, r3[2]+c32, r3[3]+c33
		return
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}
