package kernel

import (
	"fmt"
	"testing"
)

// The benchmark shapes are the BPTT hot shapes for the paper's widest
// search-space cell (H=80..96, batch 64, 4H gate blocks).
var benchShapes = [][3]int{
	{64, 80, 320}, // h·Wh recurrent step
	{64, 320, 80}, // dz·Whᵀ
	{80, 64, 320}, // hᵀ·dz weight gradient
	{512, 5, 320}, // X·Wx bulk input projection
	{128, 128, 128},
}

func BenchmarkGemm(b *testing.B) {
	for _, sh := range benchShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, mode := range []string{"kernel", "generic", "ref"} {
			b.Run(fmt.Sprintf("%s/m%dk%dn%d", mode, m, k, n), func(b *testing.B) {
				r := &testRNG{s: 1}
				a := randMat(r, m, k)
				bm := randMat(r, k, n)
				dst := MatOf(m, n, make([]float64, m*n))
				b.SetBytes(int64(8 * (m*k + k*n + m*n)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch mode {
					case "kernel":
						Config{Workers: 1}.Gemm(dst, a, bm, false, false, false)
					case "generic":
						Config{Workers: 1, ForceGeneric: true}.Gemm(dst, a, bm, false, false, false)
					default:
						RefGemm(dst, a, bm, false, false, false)
					}
				}
				flops := float64(2*m*k*n) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkLSTMForwardStep(b *testing.B) {
	const H = 80
	r := &testRNG{s: 2}
	z := make([]float64, 4*H)
	orig := make([]float64, 4*H)
	for i := range orig {
		orig[i] = 3 * r.next()
	}
	cPrev := make([]float64, H)
	c, tc, h := make([]float64, H), make([]float64, H), make([]float64, H)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(z, orig)
		LSTMForwardStep(z, cPrev, c, tc, h)
	}
}

// BenchmarkGemmLSTMViews runs the six GEMMs of one LSTM(80) training
// step on batch 64 over 8-step windows, through the same strided
// timestep views, transposes and packed panels the nn layer uses.
func BenchmarkGemmLSTMViews(b *testing.B) {
	const B, T, F, H = 64, 8, 5, 80
	const H4 = 4 * H
	r := &testRNG{s: 3}
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = r.next()
		}
		return s
	}
	x, wx, wh := fill(B*T*F), fill(F*H4), fill(H*H4)
	gates, hs, dz := fill(B*T*H4), fill(B*T*H), fill(B*T*H4)
	gwx, gwh, dhn, dx := fill(F*H4), fill(H*H4), fill(B*H), fill(B*T*F)
	cfg := Config{Workers: 1}
	pbWh := cfg.PackB(nil, MatOf(H, H4, wh), false)
	pbWhT := cfg.PackB(nil, MatOf(H, H4, wh), true)
	step := func(d []float64, s int, w int) Mat { return Mat{R: B, C: w, Stride: T * w, Data: d[s*w:]} }
	cases := []struct {
		name string
		run  func()
	}{
		{"xWx", func() { cfg.Gemm(MatOf(B*T, H4, gates), MatOf(B*T, F, x), MatOf(F, H4, wx), false, false, false) }},
		{"hWh", func() { cfg.GemmPacked(step(gates, 1, H4), step(hs, 0, H), false, pbWh, true) }},
		{"dzWhT", func() { cfg.GemmPacked(MatOf(B, H, dhn), step(dz, 1, H4), false, pbWhT, false) }},
		{"hTdz", func() { cfg.Gemm(MatOf(H, H4, gwh), step(hs, 0, H), step(dz, 1, H4), true, false, true) }},
		{"xTdz", func() { cfg.Gemm(MatOf(F, H4, gwx), MatOf(B*T, F, x), MatOf(B*T, H4, dz), true, false, true) }},
		{"dzWxT", func() { cfg.Gemm(MatOf(B*T, F, dx), MatOf(B*T, H4, dz), MatOf(F, H4, wx), false, true, false) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			c.run()
			b.ReportAllocs()
			for b.Loop() {
				c.run()
			}
		})
	}
}
