package nn

import (
	"testing"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// benchGraph is the paper's hot configuration: 5 POD coefficients in and
// out, stacked LSTM(80), batch 64, 8-step windows.
func benchGraph(tb testing.TB) (*Graph, *tensor.Tensor3, *tensor.Tensor3) {
	tb.Helper()
	g, err := NewStackedLSTM(5, 5, 80, 1, tensor.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	x := tensor.NewTensor3(64, 8, 5)
	y := tensor.NewTensor3(64, 8, 5)
	rng.FillNormal(x.Data, 1)
	rng.FillNormal(y.Data, 0.5)
	return g, x, y
}

// trainStepper returns one full training step (forward, loss, backward,
// Adam) on g, reusing its loss-gradient buffer across calls.
func trainStepper(g *Graph, x, y *tensor.Tensor3) func() {
	opt := NewAdam(0.001)
	var grad *tensor.Tensor3
	return func() {
		pred := g.Forward(x)
		_, grad = MSELossInto(grad, pred, y)
		g.Backward(grad)
		opt.Step(g.Params())
	}
}

// trainStepAllocBudget is the heap allocations one steady-state training
// step may make on the hot shape with one kernel worker.
const trainStepAllocBudget = 6

// raceEnabled is set by race_test.go in -race builds, whose
// instrumentation allocates on its own.
var raceEnabled bool

// TestTrainStepAllocBudget pins the per-step allocation budget at
// runtime; `podnaslint -hotalloc` pins it statically. AllocsPerRun sets
// GOMAXPROCS=1 while it measures, and the graph runs with one kernel
// worker, so the parallel-GEMM fan-out closures are outside this test:
// they stay excused in -hotalloc until intra-kernel fan-out leaves the
// training path.
func TestTrainStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the budget is for normal builds")
	}
	g, x, y := benchGraph(t)
	g.SetKernelConfig(kernel.Config{Workers: 1})
	step := trainStepper(g, x, y)
	step() // warm the arenas, packed panels and loss buffer
	if got := testing.AllocsPerRun(20, step); got > trainStepAllocBudget {
		t.Fatalf("train step allocates %.1f times, budget %d", got, trainStepAllocBudget)
	}
}

// BenchmarkTrainStep measures one full training step (forward, loss,
// backward, Adam). Its allocs/op is the per-step allocation budget
// TestTrainStepAllocBudget enforces.
func BenchmarkTrainStep(b *testing.B) {
	g, x, y := benchGraph(b)
	step := trainStepper(g, x, y)
	step() // warm up arenas and pools outside the measured region
	b.ReportAllocs()
	for b.Loop() {
		step()
	}
}

// BenchmarkForwardEval measures inference-only throughput.
func BenchmarkForwardEval(b *testing.B) {
	g, x, _ := benchGraph(b)
	g.Forward(x)
	b.ReportAllocs()
	for b.Loop() {
		g.Forward(x)
	}
}
