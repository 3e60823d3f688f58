package nn

import "podnas/internal/kernel"

// engineState is the execution policy and scratch shared by every
// layer of one network. Two arenas, not one: forward caches (gates,
// cell states) must survive until Backward consumes them, so the
// forward arena resets at Graph.Forward and the backward arena at
// Graph.Backward.
type engineState struct {
	noArena bool // alloc-per-step (bit-identity oracle for the arenas)
	// standalone marks a state owned by a single layer used outside a
	// Graph; the layer then recycles the arenas itself at each pass
	// (a Graph resets them once per Forward/Backward instead).
	standalone bool
	cfg        kernel.Config
	fwd        *kernel.Arena
	bwd        *kernel.Arena
}

func newEngineState() *engineState {
	return &engineState{fwd: kernel.NewArena(), bwd: kernel.NewArena()}
}

// alloc returns n floats of scratch from arena a. The memory is DIRTY
// in arena mode and zeroed in noArena mode, so callers must fully
// overwrite it; the arena-vs-alloc bit-identity test enforces exactly
// this discipline.
//
//podnas:hotpath
func (es *engineState) alloc(a *kernel.Arena, n int) []float64 {
	if es.noArena {
		return make([]float64, n) //podnas:allow hotalloc noArena oracle mode allocates per call by design; arena mode is zero-alloc
	}
	return a.Alloc(n)
}

// allocZero is alloc with guaranteed-zero contents in both modes.
//
//podnas:hotpath
func (es *engineState) allocZero(a *kernel.Arena, n int) []float64 {
	if es.noArena {
		return make([]float64, n) //podnas:allow hotalloc noArena oracle mode allocates per call by design; arena mode is zero-alloc
	}
	return a.AllocZero(n)
}

// parallel reports whether batch-row sweeps should fan out; the serial
// call sites keep their loops inline so the default single-worker path
// allocates no closures.
func (es *engineState) parallel() bool {
	return es.cfg.Workers > 1
}

// engined is embedded by layers to share one engineState per network;
// a standalone layer (constructed outside NewGraph) lazily creates its
// own.
type engined struct{ es *engineState }

func (e *engined) state() *engineState {
	if e.es == nil {
		e.es = newEngineState()
		e.es.standalone = true
	}
	return e.es
}

// resetFwd and resetBwd recycle a standalone layer's arenas at pass
// boundaries; inside a Graph the graph does this once per pass instead.
func (es *engineState) resetFwd() {
	if es.standalone && !es.noArena {
		es.fwd.Reset()
	}
}

func (es *engineState) resetBwd() {
	if es.standalone && !es.noArena {
		es.bwd.Reset()
	}
}
