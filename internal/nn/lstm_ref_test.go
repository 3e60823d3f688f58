package nn

import (
	"math"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// This file preserves the pre-kernel compute path verbatim as the fused
// path's numerical oracle: four-pass scalar LSTM gate loops, library
// sigmoid/tanh, StepInto copies, and an allocation per step. The GEMMs go
// through kernel.RefGemm, which keeps the original scalar accumulation
// order, so oracle results reproduce pre-kernel checkpoints bit for bit.
// Its caches live in test-local state (refLSTM, refGraph), never on the
// production layers.

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// refMatMulInto computes dst = a×b with pre-kernel scalar semantics.
func refMatMulInto(dst, a, b *tensor.Matrix) {
	kernel.RefGemm(dst.Kern(), a.Kern(), b.Kern(), false, false, false)
}

// refMatMul computes a×b into a fresh matrix with pre-kernel semantics.
func refMatMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(a.Rows, b.Cols)
	refMatMulInto(out, a, b)
	return out
}

// refMatMulTransB computes a×bᵀ with pre-kernel semantics.
func refMatMulTransB(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(a.Rows, b.Rows)
	kernel.RefGemm(out.Kern(), a.Kern(), b.Kern(), false, true, false)
	return out
}

// refMatMulTransAAddInto computes dst += aᵀ×b with pre-kernel semantics.
func refMatMulTransAAddInto(dst, a, b *tensor.Matrix) {
	kernel.RefGemm(dst.Kern(), a.Kern(), b.Kern(), true, false, true)
}

// refLSTM runs one LSTM layer's parameters through the pre-kernel path
// and holds that path's forward caches.
type refLSTM struct {
	l                       *LSTM
	x                       *tensor.Tensor3
	gates, cells, tanhC, hs *tensor.Tensor3
}

// forward is the pre-kernel LSTM forward pass.
func (r *refLSTM) forward(x *tensor.Tensor3) *tensor.Tensor3 {
	l := r.l
	b, t, h := x.B, x.T, l.hidden
	r.x = x
	r.gates = tensor.NewTensor3(b, t, 4*h)
	r.cells = tensor.NewTensor3(b, t, h)
	r.tanhC = tensor.NewTensor3(b, t, h)
	r.hs = tensor.NewTensor3(b, t, h)

	// Input contribution for every timestep in one GEMM: (B·T,F)·(F,4H).
	wx := tensor.FromSlice(l.in, 4*h, l.Wx.W)
	zAll := refMatMul(x.AsMatrix(), wx)

	wh := tensor.FromSlice(h, 4*h, l.Wh.W)
	hPrev := tensor.NewMatrix(b, h)  // h_{t-1}, zero at t=0
	zRec := tensor.NewMatrix(b, 4*h) // recurrent contribution buffer
	cPrev := tensor.NewMatrix(b, h)  // c_{t-1}, zero at t=0

	for step := 0; step < t; step++ {
		refMatMulInto(zRec, hPrev, wh)
		for bi := 0; bi < b; bi++ {
			// z for this (batch, step): input part + recurrent part + bias.
			zin := zAll.Row(bi*t + step)
			zr := zRec.Row(bi)
			gates := r.gates.Data[(bi*t+step)*4*h : (bi*t+step+1)*4*h]
			cell := r.cells.Data[(bi*t+step)*h : (bi*t+step+1)*h]
			tc := r.tanhC.Data[(bi*t+step)*h : (bi*t+step+1)*h]
			hrow := r.hs.Data[(bi*t+step)*h : (bi*t+step+1)*h]
			cp := cPrev.Row(bi)
			for j := 0; j < h; j++ {
				zi := zin[j] + zr[j] + l.B.W[j]
				zf := zin[h+j] + zr[h+j] + l.B.W[h+j]
				zg := zin[2*h+j] + zr[2*h+j] + l.B.W[2*h+j]
				zo := zin[3*h+j] + zr[3*h+j] + l.B.W[3*h+j]
				ig := sigmoid(zi)
				fg := sigmoid(zf)
				gg := math.Tanh(zg)
				og := sigmoid(zo)
				gates[j] = ig
				gates[h+j] = fg
				gates[2*h+j] = gg
				gates[3*h+j] = og
				c := fg*cp[j] + ig*gg
				cell[j] = c
				tcv := math.Tanh(c)
				tc[j] = tcv
				hrow[j] = og * tcv
			}
		}
		r.hs.StepInto(hPrev, step)
		r.cells.StepInto(cPrev, step)
	}
	return r.hs.Clone()
}

// backward is the pre-kernel LSTM backward pass.
func (r *refLSTM) backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	if r.x == nil {
		panic("nn: LSTM.Backward before Forward")
	}
	l := r.l
	b, t, h := r.x.B, r.x.T, l.hidden

	dzAll := tensor.NewTensor3(b, t, 4*h) // pre-activation gate gradients
	dcNext := tensor.NewMatrix(b, h)
	dhNext := tensor.NewMatrix(b, h)
	wh := tensor.FromSlice(h, 4*h, l.Wh.W)
	dhRec := tensor.NewMatrix(b, h)
	dzStep := tensor.NewMatrix(b, 4*h)

	for step := t - 1; step >= 0; step-- {
		for bi := 0; bi < b; bi++ {
			base := (bi*t + step)
			gates := r.gates.Data[base*4*h : (base+1)*4*h]
			tc := r.tanhC.Data[base*h : (base+1)*h]
			dout := dOut.Data[base*h : (base+1)*h]
			dz := dzAll.Data[base*4*h : (base+1)*4*h]
			dcn := dcNext.Row(bi)
			dhn := dhNext.Row(bi)
			var cPrev []float64
			if step > 0 {
				cPrev = r.cells.Data[(base-1)*h : base*h]
			}
			for j := 0; j < h; j++ {
				ig, fg, gg, og := gates[j], gates[h+j], gates[2*h+j], gates[3*h+j]
				dh := dout[j] + dhn[j]
				do := dh * tc[j]
				dc := dh*og*(1-tc[j]*tc[j]) + dcn[j]
				di := dc * gg
				dg := dc * ig
				var cp float64
				if cPrev != nil {
					cp = cPrev[j]
				}
				df := dc * cp
				dz[j] = di * ig * (1 - ig)
				dz[h+j] = df * fg * (1 - fg)
				dz[2*h+j] = dg * (1 - gg*gg)
				dz[3*h+j] = do * og * (1 - og)
				dcn[j] = dc * fg // becomes dcNext for step-1
			}
		}
		// dh_{t-1} += dz_t · Whᵀ ; dWh += h_{t-1}ᵀ · dz_t.
		dzAll.StepInto(dzStep, step)
		dhm := refMatMulTransB(dzStep, wh)
		copy(dhRec.Data, dhm.Data)
		dhNext, dhRec = dhRec, dhNext
		if step > 0 {
			hPrev := r.hs.Step(step - 1)
			dwh := tensor.FromSlice(h, 4*h, l.Wh.G)
			refMatMulTransAAddInto(dwh, hPrev, dzStep)
		}
	}

	// Input-side gradients in bulk: dWx += Xᵀ·dZ, db += colsum(dZ),
	// dX = dZ·Wxᵀ over the flattened (B·T) view.
	dwx := tensor.FromSlice(l.in, 4*h, l.Wx.G)
	refMatMulTransAAddInto(dwx, r.x.AsMatrix(), dzAll.AsMatrix())
	rows := b * t
	for i := 0; i < rows; i++ {
		src := dzAll.Data[i*4*h : (i+1)*4*h]
		for j, v := range src {
			l.B.G[j] += v
		}
	}
	wx := tensor.FromSlice(l.in, 4*h, l.Wx.W)
	dxm := refMatMulTransB(dzAll.AsMatrix(), wx)
	dx := tensor.NewTensor3(b, t, l.in)
	copy(dx.Data, dxm.Data)
	return dx
}

// refDenseForward is the pre-kernel Dense forward pass.
func refDenseForward(l *Dense, x *tensor.Tensor3) *tensor.Tensor3 {
	out := tensor.NewTensor3(x.B, x.T, l.out)
	w := tensor.FromSlice(l.in, l.out, l.W.W)
	refMatMulInto(out.AsMatrix(), x.AsMatrix(), w)
	addBiasRows(out.Data, l.B.W, x.B*x.T, l.out)
	return out
}

// refDenseBackward is the pre-kernel Dense backward pass for the forward
// input x: it accumulates dW, db and returns dX.
func refDenseBackward(l *Dense, x, dOut *tensor.Tensor3) *tensor.Tensor3 {
	dw := tensor.FromSlice(l.in, l.out, l.W.G)
	refMatMulTransAAddInto(dw, x.AsMatrix(), dOut.AsMatrix())
	sumGradRows(l.B.G, dOut.Data, dOut.B*dOut.T, l.out)
	dx := tensor.NewTensor3(x.B, x.T, l.in)
	w := tensor.FromSlice(l.in, l.out, l.W.W)
	dxm := refMatMulTransB(dOut.AsMatrix(), w)
	copy(dx.Data, dxm.Data)
	return dx
}

// refReLUForward rectifies x into a fresh tensor.
func refReLUForward(x *tensor.Tensor3) *tensor.Tensor3 {
	out := tensor.NewTensor3(x.B, x.T, x.F)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// refReLUBackward gates dOut by the sign of the forward input x.
func refReLUBackward(x, dOut *tensor.Tensor3) *tensor.Tensor3 {
	dx := tensor.NewTensor3(dOut.B, dOut.T, dOut.F)
	for i, v := range dOut.Data {
		if x.Data[i] > 0 {
			dx.Data[i] = v
		}
	}
	return dx
}

// refGraph walks a Graph's nodes through the pre-kernel layers, mirroring
// Graph.Forward/Backward with heap tensors in place of the arenas. It
// shares g's parameters, so Backward accumulates into g's gradients.
type refGraph struct {
	g    *Graph
	out  []*tensor.Tensor3   // per-node outputs
	in   [][]*tensor.Tensor3 // per-node merge inputs (projection inputs)
	sum  []*tensor.Tensor3   // per-node merge sums (ReLU inputs)
	lstm []*refLSTM          // per-node LSTM oracle; nil for Identity
}

func newRefGraph(g *Graph) *refGraph {
	n := len(g.nodes)
	r := &refGraph{
		g:    g,
		out:  make([]*tensor.Tensor3, n),
		in:   make([][]*tensor.Tensor3, n),
		sum:  make([]*tensor.Tensor3, n),
		lstm: make([]*refLSTM, n),
	}
	for i, node := range g.nodes {
		if l, ok := node.body.(*LSTM); ok {
			r.lstm[i] = &refLSTM{l: l}
		}
	}
	return r
}

// forward runs the network on x (B,T,InputDim) and returns (B,T,OutDim).
func (r *refGraph) forward(x *tensor.Tensor3) *tensor.Tensor3 {
	outOf := func(idx int) *tensor.Tensor3 {
		if idx == GraphInput {
			return x
		}
		return r.out[idx]
	}
	for i, node := range r.g.nodes {
		merged := outOf(node.inputs[0])
		if len(node.inputs) > 1 {
			r.in[i] = r.in[i][:0]
			var sum *tensor.Tensor3
			for j, in := range node.inputs {
				src := outOf(in)
				r.in[i] = append(r.in[i], src)
				p := refDenseForward(node.proj[j], src)
				if sum == nil {
					sum = p
				} else {
					tensor.AddTensor3(sum, p)
				}
			}
			r.sum[i] = sum
			merged = sum
			if node.relu != nil {
				merged = refReLUForward(sum)
			}
		}
		r.out[i] = merged
		if c := r.lstm[i]; c != nil {
			r.out[i] = c.forward(merged)
		}
	}
	return r.out[len(r.out)-1]
}

// backward propagates dOut through the DAG, accumulating parameter
// gradients, and returns the gradient with respect to the network input.
func (r *refGraph) backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	n := len(r.g.nodes)
	douts := make([]*tensor.Tensor3, n)
	douts[n-1] = dOut
	var dIn *tensor.Tensor3
	accumulate := func(idx int, grad *tensor.Tensor3) {
		dst := &dIn
		if idx != GraphInput {
			dst = &douts[idx]
		}
		if *dst == nil {
			*dst = grad.Clone()
		} else {
			tensor.AddTensor3(*dst, grad)
		}
	}
	for i := n - 1; i >= 0; i-- {
		node := r.g.nodes[i]
		d := douts[i]
		if d == nil {
			continue
		}
		if c := r.lstm[i]; c != nil {
			d = c.backward(d)
		}
		if len(node.inputs) == 1 {
			accumulate(node.inputs[0], d)
			continue
		}
		if node.relu != nil {
			d = refReLUBackward(r.sum[i], d)
		}
		for j, in := range node.inputs {
			accumulate(in, refDenseBackward(node.proj[j], r.in[i][j], d))
		}
	}
	if dIn == nil {
		dIn = tensor.NewTensor3(dOut.B, dOut.T, r.g.spec.InputDim)
	}
	return dIn
}
