package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"podnas/internal/arch"
	"podnas/internal/metrics"
	"podnas/internal/nn"
	"podnas/internal/obs"
	"podnas/internal/obs/span"
	"podnas/internal/search"
	"podnas/internal/tensor"
)

// evalBucket names one layer call an evaluation makes. The traced run times
// each call from the benchmark's own code; nothing inside the program is
// instrumented.
type evalBucket int

const (
	bArchBuild evalBucket = iota // arch.Space.Build
	bGather                      // RNG.Shuffle + Tensor3.GatherInto (+ input noise)
	bForward                     // Graph.Forward
	bLoss                        // MSELossInto + the divergence checks
	bBackward                    // Graph.Backward
	bAdam                        // Adam.Step (+ weight decay)
	bScore                       // Predict + MinMaxScaler.Inverse + metrics.R2
	bEpochEmit                   // per-epoch obs event and span records
	nEvalBuckets
)

// evalBucketNames are the per-layer metric names of the buckets (per-eval
// milliseconds).
var evalBucketNames = [nEvalBuckets]string{
	"arch.build_ms", "nn.gather_ms", "nn.forward_ms", "nn.loss_ms",
	"nn.backward_ms", "nn.adam_ms", "nn.score_ms", "obs.epoch_emit_ms",
}

// evalTally accumulates bucket time over evaluations. Total is the time of
// the enclosing evaluations, so Σ buckets ÷ Total is the attribution
// coverage.
type evalTally struct {
	Seconds [nEvalBuckets]float64 `json:"seconds"`
	Total   float64               `json:"total"`
	Evals   int                   `json:"evals"`
	Steps   int                   `json:"steps"`
}

func (t *evalTally) add(o evalTally) {
	for i, s := range o.Seconds {
		t.Seconds[i] += s
	}
	t.Total += o.Total
	t.Evals += o.Evals
	t.Steps += o.Steps
}

// covered is the attributed share of the enclosing time.
func (t evalTally) covered() float64 {
	if t.Total <= 0 {
		return 0
	}
	var s float64
	for _, v := range t.Seconds {
		s += v
	}
	return s / t.Total
}

// evalTimer times one evaluation on one goroutine.
type evalTimer struct{ tally evalTally }

func (t *evalTimer) since(b evalBucket, t0 time.Time) {
	t.tally.Seconds[b] += time.Since(t0).Seconds()
}

// evalLayers is the concurrency-safe sink evaluations merge into.
type evalLayers struct {
	mu    sync.Mutex
	tally evalTally
}

func (l *evalLayers) merge(t evalTally) {
	l.mu.Lock()
	l.tally.add(t)
	l.mu.Unlock()
}

func (l *evalLayers) snapshot() evalTally {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tally
}

// replicaEvaluator scores architectures exactly as
// search.TrainingEvaluator.EvaluateCtx does, through the same public calls in
// the same order, timing each call into a bucket. The traced run fails
// unless its rewards are bit-identical to the evaluator it replicates.
type replicaEvaluator struct {
	inner  *search.TrainingEvaluator
	layers *evalLayers
}

// Evaluate implements search.Evaluator.
func (r *replicaEvaluator) Evaluate(a arch.Arch, seed uint64) (float64, error) {
	return r.EvaluateCtx(context.Background(), a, seed)
}

// EvaluateCtx mirrors search.TrainingEvaluator.EvaluateCtx.
func (r *replicaEvaluator) EvaluateCtx(ctx context.Context, a arch.Arch, seed uint64) (float64, error) {
	var tm evalTimer
	start := time.Now()
	defer func() {
		tm.tally.Total = time.Since(start).Seconds()
		tm.tally.Evals = 1
		r.layers.merge(tm.tally)
	}()
	e := r.inner
	t0 := time.Now()
	g, err := e.Space.Build(a, tensor.NewRNG(seed))
	tm.since(bArchBuild, t0)
	if err != nil {
		return 0, err
	}
	cfg := e.Config
	cfg.Seed = seed ^ 0x5eed
	cfg.Ctx = ctx
	if _, err := trainReplica(g, e.Train.X, e.Train.Y, cfg, &tm); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, err
		}
		return search.DivergedReward, nil
	}
	t0 = time.Now()
	var rew float64
	if e.Scaler == nil {
		rew = nn.EvaluateR2(g, e.Val.X, e.Val.Y)
	} else {
		pred := nn.Predict(g, e.Val.X, 256)
		e.Scaler.Inverse(pred)
		target := e.Val.Y.Clone()
		e.Scaler.Inverse(target)
		rew = metrics.R2(pred.Data, target.Data)
	}
	tm.since(bScore, t0)
	if !finite(rew) {
		return search.DivergedReward, nil
	}
	return rew, nil
}

// trainReplica mirrors nn.Train call for call — shuffle, gather, forward,
// loss, backward, Adam, and the per-epoch obs records — timing each call
// into tm. Its losses and weights are bit-identical to nn.Train's for the
// same graph, data, and config.
func trainReplica(g *nn.Graph, x, y *tensor.Tensor3, cfg nn.TrainConfig, tm *evalTimer) (float64, error) {
	if x.B != y.B || x.T != y.T {
		return 0, fmt.Errorf("replica: Train shapes (B=%d,T=%d) vs (B=%d,T=%d)", x.B, x.T, y.B, y.T)
	}
	if x.B == 0 {
		return 0, fmt.Errorf("replica: Train on empty data")
	}
	if cfg.Epochs < 1 || cfg.BatchSize < 1 || cfg.LR <= 0 {
		return 0, fmt.Errorf("replica: invalid train config %+v", cfg)
	}
	recorder, _ := obs.RecorderFrom(cfg.Ctx)
	evalIdx, _ := obs.EvalFrom(cfg.Ctx)
	trainSpan, _ := span.From(cfg.Ctx)
	tracing := recorder != nil && trainSpan.Valid()
	if cfg.Workers > 0 {
		kcfg := g.KernelConfig()
		kcfg.Workers = cfg.Workers
		g.SetKernelConfig(kcfg)
	}
	params := g.Params()
	opt := nn.NewAdam(cfg.LR)
	rng := tensor.NewRNG(cfg.Seed)
	idx := make([]int, x.B)
	for i := range idx {
		idx[i] = i
	}
	var bx, by, grad *tensor.Tensor3
	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return epochLoss, fmt.Errorf("replica: training interrupted at epoch %d: %w", epoch, err)
			}
		}
		epochT0 := time.Now()
		rng.Shuffle(idx)
		tm.since(bGather, epochT0)
		epochLoss = 0
		batches := 0
		for lo := 0; lo < len(idx); lo += cfg.BatchSize {
			hi := min(lo+cfg.BatchSize, len(idx))
			t0 := time.Now()
			bx = x.GatherInto(bx, idx[lo:hi])
			by = y.GatherInto(by, idx[lo:hi])
			if cfg.InputNoise > 0 {
				for i := range bx.Data {
					bx.Data[i] += cfg.InputNoise * rng.NormFloat64()
				}
			}
			tm.since(bGather, t0)
			t0 = time.Now()
			pred := g.Forward(bx)
			tm.since(bForward, t0)
			t0 = time.Now()
			var loss float64
			loss, grad = nn.MSELossInto(grad, pred, by)
			tm.since(bLoss, t0)
			if !finite(loss) {
				return loss, fmt.Errorf("replica: training diverged at epoch %d: loss is not finite (%g)", epoch, loss)
			}
			t0 = time.Now()
			g.Backward(grad)
			tm.since(bBackward, t0)
			t0 = time.Now()
			if cfg.WeightDecay > 0 {
				decay := 1 - cfg.LR*cfg.WeightDecay
				for _, p := range params {
					for i := range p.W {
						p.W[i] *= decay
					}
				}
			}
			opt.Step(params)
			tm.since(bAdam, t0)
			epochLoss += loss
			batches++
			tm.tally.Steps++
		}
		epochLoss /= float64(batches)
		t0 := time.Now()
		if recorder != nil {
			recorder.Record(obs.Event{Kind: obs.KindEpoch, Eval: evalIdx, Epoch: epoch, Loss: epochLoss})
		}
		if tracing {
			esc := span.Derive(trainSpan, "epoch", uint64(epoch))
			e := span.End(esc, trainSpan.Span, "epoch", time.Since(epochT0))
			e.Eval, e.Epoch = evalIdx, epoch
			recorder.Record(e)
		}
		tm.since(bEpochEmit, t0)
		if cfg.EpochCallback != nil {
			cfg.EpochCallback(epoch, epochLoss)
		}
	}
	t0 := time.Now()
	defer tm.since(bLoss, t0)
	for _, p := range params {
		for i, v := range p.W {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return epochLoss, fmt.Errorf("replica: non-finite weights after training: %s[%d] = %g", p.Name, i, v)
			}
		}
	}
	return epochLoss, nil
}
