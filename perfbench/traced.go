package main

import (
	"time"

	"podnas"
	"podnas/internal/kernel"
)

// setupStages are the staged-setup buckets, in pipeline order.
var setupStages = []string{"sst.generate_s", "pod.compute_s", "pod.project_s", "window.build_s"}

// reportStages are the staged-report buckets.
var reportStages = []string{"science.r2_s", "science.predict_s", "pod.reconstruct_s", "sst.comparator_s", "science.compare_s"}

// tracedSetup runs the staged setup, checks it against the untraced
// NewPipeline p bit for bit, and records the setup breakdown and its
// overhead over the untraced setup time setupU.
func tracedSetup(res *result, st *stages, cfg podnas.PipelineConfig, p *podnas.Pipeline, setupU float64) error {
	before := st.enclosing
	sp, err := stagedSetup(cfg, st)
	if err != nil {
		return err
	}
	res.check(samePipeline(sp, p), "staged setup (sst.Generate → pod.Compute → Project → windows) differs from NewPipeline")
	for _, name := range setupStages {
		res.putTimed(name, st.seconds[name], st.seconds[name])
	}
	eig, same, err := eigenSeconds(p)
	if err != nil {
		return err
	}
	res.check(same, "SymEigen on the snapshot Gram matrix disagrees with pod.Compute's eigenvalues")
	res.putTimed("linalg.eigen_s", eig, eig)
	res.put("overhead.setup_s", st.enclosing-before-setupU)
	return nil
}

// tracedPosttrain is one posttraining through the replica trainer, with
// epoch stamps and kernel counters.
type tracedPost struct {
	tally   evalTally
	epochs  []float64
	wall    float64
	kernel  kernel.Stats
	mallocs uint64
}

// tracedPosttrain posttrains m through trainReplica with Model.Posttrain's
// configuration, checks its losses against the untraced posttraining u, and
// records the per-epoch time and the posttraining overhead. The tally counts
// one evaluation per epoch.
func tracedPosttrain(res *result, m *podnas.Model, p *podnas.Pipeline, epochs int, seed uint64, u posttrained) (tracedPost, error) {
	var (
		tp     tracedPost
		tm     evalTimer
		losses []float64
	)
	start := time.Now()
	last := start
	cfg := posttrainConfig(epochs, seed, func(_ int, l float64) {
		now := time.Now()
		losses = append(losses, l)
		tp.epochs = append(tp.epochs, now.Sub(last).Seconds())
		last = now
	})
	k0, m0 := kernel.ReadStats(), mallocs()
	_, err := trainReplica(m.Graph, p.TrainWin.X, p.TrainWin.Y, cfg, &tm)
	tp.wall = time.Since(start).Seconds()
	k1, m1 := kernel.ReadStats(), mallocs()
	if err != nil {
		return tp, err
	}
	tp.kernel = kernel.Stats{GemmCalls: k1.GemmCalls - k0.GemmCalls, GemmFLOPs: k1.GemmFLOPs - k0.GemmFLOPs}
	tp.mallocs = m1 - m0
	tm.tally.Total, tm.tally.Evals = tp.wall, epochs
	tp.tally = tm.tally
	res.check(lossDigest(losses) == lossDigest(u.losses), "replica posttraining losses differ from nn.Train's")
	res.putTimed("nn.posttrain_epoch_ms", 1000*median(tp.epochs), tp.wall)
	res.put("overhead.posttrain_s", tp.wall-u.wall)
	return tp, nil
}

// putEvalLayers records the per-evaluation breakdown of tally, with the
// kernel and allocation counters of the process that evaluated.
func putEvalLayers(res *result, tally evalTally, k kernel.Stats, allocs uint64, evals int) {
	if evals == 0 || tally.Steps == 0 {
		return
	}
	n := float64(evals)
	for b, name := range evalBucketNames {
		res.putTimed(name, 1000*tally.Seconds[b]/n, tally.Seconds[b])
	}
	steps := float64(tally.Steps)
	res.put("kernel.gflop_per_eval", float64(k.GemmFLOPs)/1e9/n)
	res.put("kernel.gemm_calls_per_step", float64(k.GemmCalls)/steps)
	if fb := tally.Seconds[bForward] + tally.Seconds[bBackward]; fb > 0 {
		res.put("kernel.gflops", float64(k.GemmFLOPs)/1e9/fb)
	}
	res.put("nn.steps_per_eval", steps/n)
	res.put("nn.allocs_per_step", float64(allocs)/steps)
	res.put("eval.coverage", tally.covered())
}

// tracedReport runs the staged report on m, checks it against the
// untraced report u bit for bit, and records the report breakdown.
func tracedReport(res *result, st *stages, m *podnas.Model, p *podnas.Pipeline, u report, uSec float64) error {
	t0 := time.Now()
	r, err := stagedReport(m, p, st)
	sec := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	res.check(r.digest() == u.digest(), "staged Table I/II differs from TrainR2/TestR2/RegionalRMSE")
	for _, name := range reportStages {
		res.putTimed(name, st.seconds[name], st.seconds[name])
	}
	res.put("science.coverage", st.covered())
	res.put("overhead.report_s", sec-uSec)
	return nil
}
