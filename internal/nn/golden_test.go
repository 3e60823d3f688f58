package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// goldenSkipSpec is a fixed skip-connection DAG: two merges with Dense
// projections and ReLU, one merge into an Identity body, ragged widths
// (5, 20, 12) so every GEMM has edge tiles on every micro-kernel family.
func goldenSkipSpec() GraphSpec {
	return GraphSpec{
		InputDim: 5,
		Nodes: []GraphNodeSpec{
			{Inputs: []int{GraphInput}, Units: 20},
			{Inputs: []int{0, GraphInput}, Units: 12},
			{Inputs: []int{1, 0}, Units: 0},
			{Inputs: []int{2, GraphInput}, Units: 5},
		},
	}
}

// goldenDigest is FNV-64a over every parameter's name and weight bits,
// in Params order.
func goldenDigest(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range g.Params() {
		h.Write([]byte(p.Name))
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// goldenRun trains g for two epochs on a fixed 150-window data set
// (batches of 64, 64 and a ragged 22) with one kernel worker and
// returns the weight digest and the final loss bits.
func goldenRun(t *testing.T, g *Graph, cfg kernel.Config) (uint64, uint64) {
	t.Helper()
	g.SetKernelConfig(cfg)
	rng := tensor.NewRNG(3)
	x := tensor.NewTensor3(150, 8, g.InDim())
	y := tensor.NewTensor3(150, 8, g.OutDim())
	rng.FillNormal(x.Data, 1)
	rng.FillNormal(y.Data, 0.5)
	loss, err := Train(g, x, y, TrainConfig{Epochs: 2, BatchSize: 64, LR: 0.001, Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return goldenDigest(g), math.Float64bits(loss)
}

// goldenValue is one pinned training outcome.
type goldenValue struct{ digest, loss uint64 }

// goldenTable holds the outcomes per SIMD class (kernel.SIMD()), for the
// auto-selected micro-kernel and for ForceGeneric. The LSTM activation
// sweep follows the host's class even under ForceGeneric (AVX-512 vector
// exp vs the scalar chains), so the generic-GEMM outcome differs between
// avx512 hosts and the others; avx2 and generic hosts share it. Values
// were recorded with the default GOAMD64=v1 build, whose pure-Go code
// never fuses multiply-adds.
var goldenTable = map[string]map[string]map[bool]goldenValue{
	"skip": {
		"avx512":  {false: {0x9fd5575c75827eca, 0x3fd1760319482e1c}, true: {0x65cb69a0d5590a3f, 0x3fd1760319482e1b}},
		"avx2":    {false: {0xd7b09bd0107e18fc, 0x3fd1760319482e1b}, true: {0x316a0fd3b901ae6d, 0x3fd1760319482e1c}},
		"generic": {false: {0x316a0fd3b901ae6d, 0x3fd1760319482e1c}, true: {0x316a0fd3b901ae6d, 0x3fd1760319482e1c}},
	},
	"stacked": {
		"avx512":  {false: {0x12e103b7b7a69e19, 0x3fd039ffcbf5e1a8}, true: {0xab8ac7b5cd77cb39, 0x3fd039ffcbf5e1a8}},
		"avx2":    {false: {0xdc466b8afd173d8b, 0x3fd039ffcbf5e1a8}, true: {0x7f811f83daf955ff, 0x3fd039ffcbf5e1a7}},
		"generic": {false: {0x7f811f83daf955ff, 0x3fd039ffcbf5e1a7}, true: {0x7f811f83daf955ff, 0x3fd039ffcbf5e1a7}},
	},
}

// TestGoldenTrainingBits pins the exact weights and loss of two short
// training runs (a skip-connection graph and the paper's stacked
// LSTM(80)) for the host's micro-kernel and for the generic one. Kernel
// rewrites that claim bit-identical output must leave these untouched.
func TestGoldenTrainingBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits recorded on amd64; %s may fuse multiply-adds in pure-Go code", runtime.GOARCH)
	}
	class := kernel.SIMD()
	for _, name := range []string{"skip", "stacked"} {
		for _, forceGeneric := range []bool{false, true} {
			var g *Graph
			var err error
			if name == "skip" {
				g, err = NewGraph(goldenSkipSpec(), tensor.NewRNG(5))
			} else {
				g, err = NewStackedLSTM(5, 5, 80, 1, tensor.NewRNG(5))
			}
			if err != nil {
				t.Fatal(err)
			}
			digest, loss := goldenRun(t, g, kernel.Config{Workers: 1, ForceGeneric: forceGeneric})
			want := goldenTable[name][class][forceGeneric]
			if digest != want.digest || loss != want.loss {
				t.Errorf("%s class=%s forceGeneric=%v: digest %#x loss bits %#x (%g), want digest %#x loss bits %#x",
					name, class, forceGeneric, digest, loss, math.Float64frombits(loss), want.digest, want.loss)
			}
		}
	}
}
