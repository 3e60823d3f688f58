package kernel

import (
	"math"
	"testing"
)

// testRNG is a splitmix64 kept local so the kernel package stays free
// of math/rand (detrand covers internal/kernel).
type testRNG struct{ s uint64 }

func (r *testRNG) next() float64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53)*2 - 1
}

func randMat(r *testRNG, rows, cols int) Mat {
	m := MatOf(rows, cols, make([]float64, rows*cols))
	for i := range m.Data {
		m.Data[i] = r.next()
	}
	return m
}

// maxRelDiff returns the largest |x-y| / (1+|y|) over the views; a NaN
// in either counts as an infinite difference.
func maxRelDiff(x, y Mat) float64 {
	var worst float64
	for i := 0; i < x.R; i++ {
		xr, yr := x.Row(i), y.Row(i)
		for j := range xr {
			d := math.Abs(xr[j]-yr[j]) / (1 + math.Abs(yr[j]))
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// forEachISA runs fn once per micro-kernel family this CPU can execute:
// generic through Config.ForceGeneric, and AVX2 and AVX-512 through a
// test-only ISA override that masks the detected feature flags for the
// duration (so the AVX2 kernel is exercised on an AVX-512 host too).
// The flags are package state: callers must not run in parallel.
func forEachISA(t *testing.T, fn func(t *testing.T, cfg Config)) {
	t.Helper()
	avx2, avx512 := hasAVX2, hasAVX512
	defer func() { hasAVX2, hasAVX512 = avx2, avx512 }()
	type family struct {
		name         string
		isa          int
		avx2, avx512 bool
	}
	fams := []family{{"generic", isaGeneric, avx2, avx512}}
	if avx2 {
		fams = append(fams, family{"avx2", isaAVX2, true, false})
	}
	if avx512 {
		fams = append(fams, family{"avx512", isaAVX512, avx2, true})
	}
	for _, f := range fams {
		hasAVX2, hasAVX512 = f.avx2, f.avx512
		cfg := Config{Workers: 1, ForceGeneric: f.isa == isaGeneric}
		if got := cfg.isa(); got != f.isa {
			t.Fatalf("%s: config resolves to family %d, want %d", f.name, got, f.isa)
		}
		t.Run(f.name, func(t *testing.T) { fn(t, cfg) })
	}
}

// fillNaN overwrites every element of the view with NaN, so a store-mode
// GEMM that leaves any element unwritten fails the comparison.
func fillNaN(m Mat) {
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = math.NaN()
		}
	}
}

// TestGemmMatchesRef drives every trans/accumulate combination and a
// shape sweep covering full tiles, ragged edge rows and columns for each
// family's tile shape, and k=0 against the scalar oracle, on every
// micro-kernel family. Store mode (accumulate=false) writes into a dst
// prefilled with NaN, so every element must be overwritten.
func TestGemmMatchesRef(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {5, 7, 3}, {6, 8, 8}, {7, 5, 9},
		{8, 16, 16}, {9, 1, 17}, {13, 29, 17}, {31, 10, 33}, {64, 80, 96}, {64, 320, 80},
		{7, 0, 5}, {12, 0, 16},
	}
	forEachISA(t, func(t *testing.T, cfg Config) {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			for mask := 0; mask < 8; mask++ {
				transA, transB, acc := mask&1 != 0, mask&2 != 0, mask&4 != 0
				r := &testRNG{s: uint64(m*1000000 + k*1000 + n + mask)}
				ar, ac := m, k
				if transA {
					ar, ac = k, m
				}
				br, bc := k, n
				if transB {
					br, bc = n, k
				}
				a := randMat(r, ar, ac)
				b := randMat(r, br, bc)
				got := randMat(r, m, n)
				want := MatOf(m, n, append([]float64(nil), got.Data...))
				if !acc {
					fillNaN(got)
				}
				cfg.Gemm(got, a, b, transA, transB, acc)
				RefGemm(want, a, b, transA, transB, acc)
				if d := maxRelDiff(got, want); d > 1e-13 {
					t.Fatalf("m=%d k=%d n=%d tA=%v tB=%v acc=%v: rel diff %g",
						m, k, n, transA, transB, acc, d)
				}
			}
		}
	})
}

// TestGemmSerialParallelBitIdentical pins the determinism contract:
// destination rows are partitioned, never split, so any worker count
// produces bitwise-equal output, for every family and both A layouts.
func TestGemmSerialParallelBitIdentical(t *testing.T) {
	forEachISA(t, func(t *testing.T, cfg Config) {
		for _, transA := range []bool{false, true} {
			r := &testRNG{s: 7}
			m, k, n := 67, 45, 53
			a := randMat(r, m, k)
			if transA {
				a = randMat(r, k, m)
			}
			b := randMat(r, k, n)
			serial := MatOf(m, n, make([]float64, m*n))
			cfg.Gemm(serial, a, b, transA, false, false)
			for _, w := range []int{2, 3, 8} {
				par := MatOf(m, n, make([]float64, m*n))
				pcfg := cfg
				pcfg.Workers, pcfg.ParallelThreshold = w, 1
				pcfg.Gemm(par, a, b, transA, false, false)
				for i := range par.Data {
					if math.Float64bits(par.Data[i]) != math.Float64bits(serial.Data[i]) {
						t.Fatalf("transA=%v workers=%d differs from serial at %d: %x vs %x",
							transA, w, i, par.Data[i], serial.Data[i])
					}
				}
			}
		}
	})
}

// TestGemmStridedViews multiplies through the strided views the nn layers
// use: timestep slices of (batch, time, feature) buffers whose row stride
// is t·features (t·4h for the LSTM gate buffers), transposed and packed
// operands, in store and accumulate mode. The oracle runs RefGemm on the
// same views of a copy of the destination buffer, so elements outside
// the view must come out untouched and those inside must match.
func TestGemmStridedViews(t *testing.T) {
	const T, tt = 3, 1 // timesteps per window, the one under test
	type lstmDims struct{ b, in, h int }
	dims := []lstmDims{{5, 4, 6}, {13, 5, 5}, {16, 7, 20}}
	forEachISA(t, func(t *testing.T, cfg Config) {
		for _, d := range dims {
			b, in, h := d.b, d.in, d.h
			h4 := 4 * h
			r := &testRNG{s: uint64(b*100 + h)}
			buf := func(n int) []float64 {
				s := make([]float64, n)
				for i := range s {
					s[i] = r.next()
				}
				return s
			}
			// view is timestep tt of a (b, T, w) buffer.
			view := func(data []float64, w int) Mat { return Mat{R: b, C: w, Stride: T * w, Data: data[tt*w:]} }
			x, hs, dz := buf(b*T*in), buf(b*T*h), buf(b*T*h4)
			wx, wh := randMat(r, in, h4), randMat(r, h, h4)
			pbWh := cfg.PackB(nil, wh, false)
			pbWhT := cfg.PackB(nil, wh, true)
			cases := []struct {
				name string
				dst  []float64
				// run computes into dst's view through the kernel, ref through RefGemm.
				run, ref func(dst []float64, acc bool)
			}{
				{"x·Wx", buf(b * T * h4),
					func(dst []float64, acc bool) { cfg.Gemm(view(dst, h4), view(x, in), wx, false, false, acc) },
					func(dst []float64, acc bool) { RefGemm(view(dst, h4), view(x, in), wx, false, false, acc) }},
				{"h·Wh packed", buf(b * T * h4),
					func(dst []float64, acc bool) { cfg.GemmPacked(view(dst, h4), view(hs, h), false, pbWh, acc) },
					func(dst []float64, acc bool) { RefGemm(view(dst, h4), view(hs, h), wh, false, false, acc) }},
				{"h·Wh in place", buf(b * T * h4),
					func(dst []float64, acc bool) { cfg.Gemm(view(dst, h4), view(hs, h), wh, false, false, acc) },
					func(dst []float64, acc bool) { RefGemm(view(dst, h4), view(hs, h), wh, false, false, acc) }},
				{"dz·Whᵀ packed", buf(b * h),
					func(dst []float64, acc bool) { cfg.GemmPacked(MatOf(b, h, dst), view(dz, h4), false, pbWhT, acc) },
					func(dst []float64, acc bool) { RefGemm(MatOf(b, h, dst), view(dz, h4), wh, false, true, acc) }},
				{"dz·Whᵀ", buf(b * T * h),
					func(dst []float64, acc bool) { cfg.Gemm(view(dst, h), view(dz, h4), wh, false, true, acc) },
					func(dst []float64, acc bool) { RefGemm(view(dst, h), view(dz, h4), wh, false, true, acc) }},
				{"hᵀ·dz", buf(h * h4),
					func(dst []float64, acc bool) {
						cfg.Gemm(MatOf(h, h4, dst), view(hs, h), view(dz, h4), true, false, acc)
					},
					func(dst []float64, acc bool) { RefGemm(MatOf(h, h4, dst), view(hs, h), view(dz, h4), true, false, acc) }},
			}
			for _, c := range cases {
				for _, acc := range []bool{false, true} {
					got := append([]float64(nil), c.dst...)
					want := append([]float64(nil), c.dst...)
					c.run(got, acc)
					c.ref(want, acc)
					for i := range got {
						if e := math.Abs(got[i]-want[i]) / (1 + math.Abs(want[i])); !(e <= 1e-13) {
							t.Fatalf("%s b=%d in=%d h=%d acc=%v: element %d = %g, want %g",
								c.name, b, in, h, acc, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestGemmPackedReuse packs B once and reuses it across calls, matching
// per-call Gemm (B read in place) bitwise on every family: each C tile
// takes the same FMA sequence either way.
func TestGemmPackedReuse(t *testing.T) {
	forEachISA(t, func(t *testing.T, cfg Config) {
		r := &testRNG{s: 3}
		wh := randMat(r, 24, 100)
		pb := cfg.PackB(nil, wh, false)
		for trial := 0; trial < 3; trial++ {
			a := randMat(r, 10, 24)
			got := MatOf(10, 100, make([]float64, 10*100))
			want := MatOf(10, 100, make([]float64, 10*100))
			cfg.GemmPacked(got, a, false, pb, false)
			cfg.Gemm(want, a, wh, false, false, false)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("trial %d: packed reuse differs at %d", trial, i)
				}
			}
			// Repack (weights changed) into the same buffer.
			for i := range wh.Data {
				wh.Data[i] += 0.25
			}
			pb = cfg.PackB(pb, wh, false)
		}
	})
}

// TestGemmStatsAdvance checks the cumulative counters move by the
// expected FLOP count.
func TestGemmStatsAdvance(t *testing.T) {
	r := &testRNG{s: 5}
	a, b := randMat(r, 8, 9), randMat(r, 9, 10)
	dst := MatOf(8, 10, make([]float64, 80))
	before := ReadStats()
	Config{Workers: 1}.Gemm(dst, a, b, false, false, false)
	after := ReadStats()
	if after.GemmCalls != before.GemmCalls+1 {
		t.Fatalf("calls %d -> %d", before.GemmCalls, after.GemmCalls)
	}
	if got := after.GemmFLOPs - before.GemmFLOPs; got != 2*8*9*10 {
		t.Fatalf("flops delta %d, want %d", got, 2*8*9*10)
	}
}
