package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"podnas"
	"podnas/internal/arch"
	"podnas/internal/fsatomic"
	"podnas/internal/kernel"
	"podnas/internal/obs"
	"podnas/internal/obs/span"
	"podnas/internal/search"
	"podnas/internal/worker"
)

// searchSpec parameterizes a search workload: a seed-pinned random search
// run as a closed loop on a fixed number of evaluation slots.
type searchSpec struct {
	name     string
	pipeline podnas.PipelineConfig
	evals    int // MaxEvals per round
	epochs   int // training epochs per evaluation
	slots    int // concurrent evaluations (in-process workers or worker processes)
	isolated bool
	// minRounds is how many full searches a run makes whatever its time
	// budget; it fixes the tail percentile.
	minRounds int
	setups    int // setup repetitions; setup_s is their median
	// post is the posttrain+report phase, run postPerRound times after
	// every round so that its samples, like the rounds', span the whole run.
	post         postSpec
	postPerRound int
	// scaling makes the traced run also search at Workers=1 on the same
	// evaluation set.
	scaling bool
}

// samplerSeed seeds the RS proposal stream. It is the same for every
// workload seed, so every seed trains the same architectures and a run's
// work does not depend on which ones a seed happened to draw; the workload
// seed sets each evaluation's weight initialization and batch order.
const samplerSeed = 1

// smallPost is the search workloads' post-search phase: the paper's LSTM-80
// baseline posttrained and reported on the small grid.
var smallPost = postSpec{grid: "small", units: 80, layers: 1, epochs: 100, checkReference: true}

func searchPaper() searchSpec {
	return searchSpec{
		name: "search_paper", pipeline: podnas.SmallPipelineConfig(),
		evals: 24, epochs: 20, slots: 2, minRounds: 2, setups: 5, scaling: true,
		post: smallPost, postPerRound: 2,
	}
}

func searchIsolatedShort() searchSpec {
	return searchSpec{
		name: "search_isolated_short", pipeline: podnas.SmallPipelineConfig(),
		evals: 200, epochs: 1, slots: 2, isolated: true, minRounds: 2, setups: 5,
		post: smallPost, postPerRound: 2,
	}
}

func (s searchSpec) workload() workload {
	return workload{
		name: s.name,
		params: map[string]any{
			"grid": gridName(s.post.grid, s.pipeline.Data), "method": "RS", "sampler_seed": samplerSeed,
			"evals": s.evals, "epochs": s.epochs, "slots": s.slots, "isolated": s.isolated,
			"min_rounds": s.minRounds, "setups": s.setups,
			"post_model": s.post.model(), "posttrain_epochs": s.post.epochs, "post_per_round": s.postPerRound,
			"tail_percentile": tailPercentile(s.evals * s.minRounds),
		},
		run: s.run,
	}
}

// round is one complete search of s.evals evaluations.
type round struct {
	results []search.Result // sorted by Index
	wall    float64
	faults  int // worker-pool faults during the round
}

func (r round) latencies() []float64 {
	out := make([]float64, len(r.results))
	for i, x := range r.results {
		out[i] = x.Elapsed.Seconds()
	}
	return out
}

func (r round) evalsPerS() float64 { return float64(len(r.results)) / r.wall }

// digest fingerprints the round's content: architecture and reward by
// index, bit for bit.
func (r round) digest() string {
	h := sha256.New()
	for _, x := range r.results {
		fmt.Fprintf(h, "%d %s %016x %v\n", x.Index, x.Arch.Key(), math.Float64bits(x.Reward), x.Err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// roundOpts are a round's optional program features and benchmark wrappers.
type roundOpts struct {
	workers int
	rec     obs.Recorder
	trace   span.Context
	ckPath  string
	wrap    func(search.Searcher) search.Searcher
}

// searchRound runs one seed-pinned RS search on ev.
func (s searchSpec) searchRound(p *podnas.Pipeline, ev search.Evaluator, seed uint64, o roundOpts) (round, error) {
	var sr search.Searcher
	sr, err := search.NewRandomSearch(p.DefaultSpace(), samplerSeed)
	if err != nil {
		return round{}, err
	}
	if o.wrap != nil {
		sr = o.wrap(sr)
	}
	var ck *search.Checkpointer
	if o.ckPath != "" {
		ck = &search.Checkpointer{Path: o.ckPath}
	}
	workers := o.workers
	if workers == 0 {
		workers = s.slots
	}
	runtime.GC()
	t0 := time.Now()
	res, err := search.RunAsyncCtx(context.Background(), sr, ev, search.RunAsyncOptions{
		Workers: workers, MaxEvals: s.evals, Seed: seed,
		Checkpoint: ck, Recorder: o.rec, Trace: o.trace,
	})
	wall := time.Since(t0).Seconds()
	if err != nil {
		return round{}, err
	}
	sort.Slice(res, func(i, j int) bool { return res[i].Index < res[j].Index })
	return round{results: res, wall: wall}, nil
}

// checkRound applies the per-round output checks and failure accounting.
// An evaluation that errored, or any evaluation of a round whose pool
// needed a restart or re-dispatch, counts as failed.
func (s searchSpec) checkRound(res *result, r round) {
	res.attempted += s.evals
	res.check(len(r.results) == s.evals, "round returned %d of %d results", len(r.results), s.evals)
	failed := 0
	for i, x := range r.results {
		res.check(x.Index == i, "result %d has index %d", i, x.Index)
		if x.Err != nil {
			failed++
			continue
		}
		res.check(finite(x.Reward) && x.Reward <= 1, "eval %d reward %v not finite or above 1", x.Index, x.Reward)
	}
	if r.faults > 0 {
		failed = s.evals
	}
	res.failed += failed
	res.check(failed == 0, "%d evaluations failed (%d pool faults)", failed, r.faults)
}

// checkContent compares a round against earlier runs of the same seed and,
// for the isolated workload, against an in-process search of the same seed.
func (s searchSpec) checkContent(e env, res *result, r round, p *podnas.Pipeline) error {
	key := fmt.Sprintf("%s seed=%d sampler=%d evals=%d epochs=%d", s.name, e.seed, samplerSeed, s.evals, s.epochs)
	ok, err := e.cache.match(key, r.digest())
	if err != nil {
		return err
	}
	res.check(ok, "search content differs from an earlier run of seed %d", e.seed)
	if !s.isolated {
		return nil
	}
	refKey := fmt.Sprintf("in-process RS seed=%d sampler=%d evals=%d epochs=%d slots=%d", e.seed, samplerSeed, s.evals, s.epochs, s.slots)
	want, ok := e.cache.lookup(refKey)
	if !ok {
		ev, err := p.NewEvaluator(s.epochs)
		if err != nil {
			return err
		}
		ref, err := s.searchRound(p, ev, e.seed, roundOpts{})
		if err != nil {
			return err
		}
		want = ref.digest()
		if _, err := e.cache.match(refKey, want); err != nil {
			return err
		}
	}
	res.check(r.digest() == want, "isolated search content differs from the in-process search of seed %d", e.seed)
	return nil
}

// searchState is a set-up search workload: the pipeline and the evaluator
// rounds run on, plus the worker-pool assembly on the isolated workload.
type searchState struct {
	p   *podnas.Pipeline
	ev  search.Evaluator
	asm *assembly
}

// setup runs the workload's setup s.setups times and keeps the last; the
// durations are the setup_s samples.
func (s searchSpec) setup(e env) (*searchState, []float64, error) {
	var samples []float64
	var st *searchState
	for i := 0; i < s.setups; i++ {
		if st != nil && st.asm != nil {
			if _, err := st.asm.close(e.log); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		p, err := podnas.NewPipeline(s.pipeline)
		if err != nil {
			return nil, nil, err
		}
		st = &searchState{p: p}
		if s.isolated {
			if st.asm, err = s.assemble(e, e.seed, false, nil); err != nil {
				return nil, nil, err
			}
			st.ev = st.asm.pool
		} else if st.ev, err = p.NewEvaluator(s.epochs); err != nil {
			return nil, nil, err
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return st, samples, nil
}

// options are the program features a round on st uses: on the isolated
// workload, tracing (recorder and root span) and checkpoints, as `nasrun
// -isolate -trace -checkpoint` runs them.
func (st *searchState) options() roundOpts {
	if st.asm == nil {
		return roundOpts{}
	}
	return roundOpts{rec: st.asm.rec, trace: st.asm.root, ckPath: st.asm.ckPath}
}

func (s searchSpec) run(e env) (*result, error) {
	res := newResult()
	st, setups, err := s.setup(e)
	if err != nil {
		return nil, err
	}
	if st.asm != nil {
		defer st.asm.close(e.log)
	}
	res.recordGrid(st.p)
	if e.trace {
		return s.traced(e, res, st, setups)
	}
	var rounds []round
	var cycles []cycle
	start := time.Now()
	for len(rounds) < s.minRounds || time.Since(start).Seconds() < e.seconds {
		var f0 int
		if st.asm != nil {
			f0 = poolFaults(st.asm.pool.Stats())
		}
		r, err := s.searchRound(st.p, st.ev, e.seed, st.options())
		if err != nil {
			return nil, err
		}
		c, err := s.post.cycles(res, st.p, e.seed, s.postPerRound, 0)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c...)
		// A worker lost while the pool idled through the post phase also
		// counts against this round.
		if st.asm != nil {
			r.faults = poolFaults(st.asm.pool.Stats()) - f0
		}
		s.checkRound(res, r)
		if len(rounds) > 0 {
			res.check(r.digest() == rounds[0].digest(), "round %d content differs from round 0", len(rounds))
		}
		rounds = append(rounds, r)
	}
	if st.asm != nil {
		if _, err := st.asm.close(e.log); err != nil {
			return nil, err
		}
	}
	// Read before checkContent, which may run the in-process reference
	// search once per seed: the peak must not depend on whether an earlier
	// run already cached it.
	peak := peakRSSMB(s.isolated)
	if err := s.checkContent(e, res, rounds[0], st.p); err != nil {
		return nil, err
	}
	var perS, util, lats []float64
	for _, r := range rounds {
		perS = append(perS, r.evalsPerS())
		util = append(util, utilization(r.latencies(), s.slots, r.wall))
		lats = append(lats, r.latencies()...)
	}
	if err := s.post.check(e, res, cycles, s.name); err != nil {
		return nil, err
	}
	res.put("evals_per_s", median(perS))
	res.put("eval_p50_s", median(lats))
	res.put("eval_tail_s", percentile(lats, tailPercentile(s.evals*s.minRounds)))
	res.put("utilization", median(util))
	res.put("setup_s", median(setups))
	s.post.put(res, cycles)
	res.put("peak_rss_mb", peak)
	return res, nil
}

// poolFaults counts the supervision events that mean an evaluation did not
// complete on its first dispatch.
func poolFaults(st worker.PoolStats) int {
	return st.Crashes + st.Restarts + st.Redispatches + st.HeartbeatTimeouts + st.FallbackEvals
}

// assembly is the isolated workload's search-side wiring, as `nasrun
// -isolate -trace -checkpoint` assembles it: live obs.Metrics plus a JSONL
// trace sink under one recorder, a root span, a pipe worker pool without an
// in-process fallback, and a checkpoint path.
type assembly struct {
	pool       *worker.Pool
	rec        obs.Recorder
	jsonl      *obs.JSONL
	file       *os.File
	traceBytes *countingWriter
	root       span.Context
	ckPath     string
	sink       *workerSink
	readyS     float64 // NewPool until every slot is live

	closed   bool
	closeRep workerReport
	closeErr error
}

// assemble builds the pool wiring and waits until every worker slot is
// live. wrap, when non-nil, wraps the program's recorder (the traced run's
// timing recorder); layers makes the workers time their layer calls.
func (s searchSpec) assemble(e env, seed uint64, layers bool, wrap func(obs.Recorder) obs.Recorder) (*assembly, error) {
	dir, err := os.MkdirTemp(e.scratch, "asm")
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return nil, err
	}
	a := &assembly{file: f, traceBytes: &countingWriter{w: f}, ckPath: filepath.Join(dir, "checkpoint.json"), sink: &workerSink{}}
	a.jsonl = obs.NewJSONL(a.traceBytes)
	a.rec = obs.NewMulti(obs.NewMetrics(s.slots), a.jsonl)
	if wrap != nil {
		a.rec = wrap(a.rec)
	}
	a.rec.Record(obs.NewHeader("rs", seed, s.slots, podnas.Version))
	a.root = span.NewTrace(fmt.Sprintf("run/rs/%d", seed))
	t0 := time.Now()
	a.pool, err = worker.NewPool(worker.PoolOptions{
		Workers: s.slots, Command: workerCommand(e.exe, s.epochs, layers, a.sink),
		Seed: seed, Recorder: a.rec, Trace: a.root,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := waitLive(a.pool, s.slots, 2*time.Minute); err != nil {
		a.close(e.log)
		return nil, err
	}
	a.readyS = time.Since(t0).Seconds()
	return a, nil
}

// waitLive blocks until every pool slot has a ready worker attached.
func waitLive(p *worker.Pool, slots int, timeout time.Duration) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(timeout)
	for len(p.Identities()) < slots {
		select {
		case <-tick.C:
		case <-deadline:
			return fmt.Errorf("worker pool: %d of %d slots live after %v", len(p.Identities()), slots, timeout)
		}
	}
	return nil
}

// close shuts the pool down (reaping every worker), flushes the trace, and
// returns the workers' summed reports; their other stderr lines go to log.
// Later calls return the first call's outcome.
func (a *assembly) close(log io.Writer) (workerReport, error) {
	if a.closed {
		return a.closeRep, a.closeErr
	}
	a.closed = true
	a.pool.Close()
	err := a.jsonl.Close()
	if err == nil {
		err = a.jsonl.Err()
	}
	if cerr := a.file.Close(); err == nil {
		err = cerr
	}
	rep, rerr := a.sink.reports(log)
	if err == nil {
		err = rerr
	}
	a.closeRep, a.closeErr = rep, err
	return rep, err
}

// timedSearcher times the runner's calls into the searcher. The runner
// serializes Propose and Report under its own lock, so the counters need
// none.
type timedSearcher struct {
	inner search.Searcher
	busy  time.Duration
	calls int
}

func (t *timedSearcher) Propose() arch.Arch {
	t0 := time.Now()
	a := t.inner.Propose()
	t.busy += time.Since(t0)
	t.calls++
	return a
}

func (t *timedSearcher) Report(a arch.Arch, reward float64) {
	t0 := time.Now()
	t.inner.Report(a, reward)
	t.busy += time.Since(t0)
	t.calls++
}

func (t *timedSearcher) Name() string { return t.inner.Name() }

// Snapshot and Restore keep checkpointing available through the wrapper.
func (t *timedSearcher) Snapshot() (search.SearcherState, error) {
	return t.inner.(search.Snapshotter).Snapshot()
}

func (t *timedSearcher) Restore(st search.SearcherState) error {
	return t.inner.(search.Snapshotter).Restore(st)
}

// timedRecorder times Recorder.Record on the program's recorder and counts
// events, checkpoint records and checkpoint bytes.
type timedRecorder struct {
	inner  obs.Recorder
	ckPath string

	mu          sync.Mutex
	busy        time.Duration
	events      int
	checkpoints int
	ckBytes     int64
}

func (t *timedRecorder) Record(e obs.Event) {
	t0 := time.Now()
	t.inner.Record(e)
	d := time.Since(t0)
	var size int64
	if e.Kind == obs.KindCheckpoint {
		if fi, err := os.Stat(t.ckPath); err == nil {
			size = fi.Size()
		}
	}
	t.mu.Lock()
	t.busy += d
	t.events++
	if e.Kind == obs.KindCheckpoint {
		t.checkpoints++
		t.ckBytes += size
	}
	t.mu.Unlock()
}

// recorderCounts is a snapshot of a timedRecorder's counters.
type recorderCounts struct {
	busy                time.Duration
	events, checkpoints int
	ckBytes             int64
}

func (t *timedRecorder) counts() recorderCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return recorderCounts{t.busy, t.events, t.checkpoints, t.ckBytes}
}

// timedEvaluator measures search-side evaluation latency around the pool.
type timedEvaluator struct {
	inner search.ContextEvaluator

	mu    sync.Mutex
	total time.Duration
}

func (t *timedEvaluator) Evaluate(a arch.Arch, seed uint64) (float64, error) {
	return t.EvaluateCtx(context.Background(), a, seed)
}

func (t *timedEvaluator) EvaluateCtx(ctx context.Context, a arch.Arch, seed uint64) (float64, error) {
	t0 := time.Now()
	r, err := t.inner.EvaluateCtx(ctx, a, seed)
	d := time.Since(t0)
	t.mu.Lock()
	t.total += d
	t.mu.Unlock()
	return r, err
}

// traced is a search workload's per-layer run: an untraced round, the same
// round through the benchmark's wrappers and the replica evaluator (checked
// bit for bit against it), the staged setup, and the traced post-search.
func (s searchSpec) traced(e env, res *result, st *searchState, setups []float64) (*result, error) {
	res.zeroLayers()
	stg := newStages()
	if err := tracedSetup(res, stg, s.pipeline, st.p, setups[len(setups)-1]); err != nil {
		return nil, err
	}
	f0 := 0
	if st.asm != nil {
		f0 = poolFaults(st.asm.pool.Stats())
	}
	u, err := s.searchRound(st.p, st.ev, e.seed, st.options())
	if err != nil {
		return nil, err
	}
	if st.asm != nil {
		u.faults = poolFaults(st.asm.pool.Stats()) - f0
		if _, err := st.asm.close(e.log); err != nil {
			return nil, err
		}
	}
	s.checkRound(res, u)
	if err := s.checkContent(e, res, u, st.p); err != nil {
		return nil, err
	}

	ts := &timedSearcher{}
	wrap := func(sr search.Searcher) search.Searcher { ts.inner = sr; return ts }
	var (
		t      round
		tally  evalTally
		kstats kernel.Stats
		allocs uint64
	)
	if s.isolated {
		var tr *timedRecorder
		asm, err := s.assemble(e, e.seed, true, func(r obs.Recorder) obs.Recorder {
			tr = &timedRecorder{inner: r}
			return tr
		})
		if err != nil {
			return nil, err
		}
		defer asm.close(e.log)
		tr.ckPath = asm.ckPath
		res.put("worker.ready_s", asm.readyS)
		// The untraced setup sample includes the pool; so does the traced one.
		res.put("overhead.setup_s", res.value("overhead.setup_s")+asm.readyS)
		te := &timedEvaluator{inner: asm.pool}
		if err := asm.jsonl.Flush(); err != nil {
			return nil, err
		}
		c0, b0, sync0 := tr.counts(), asm.traceBytes.n.Load(), fsatomic.SyncCount()
		o := roundOpts{rec: tr, trace: asm.root, ckPath: asm.ckPath, wrap: wrap}
		t, err = s.searchRound(st.p, te, e.seed, o)
		if err != nil {
			return nil, err
		}
		t.faults = poolFaults(asm.pool.Stats())
		if err := asm.jsonl.Flush(); err != nil {
			return nil, err
		}
		c1, b1, sync1 := tr.counts(), asm.traceBytes.n.Load(), fsatomic.SyncCount()
		rep, err := asm.close(e.log)
		if err != nil {
			return nil, err
		}
		tally = rep.Layers
		kstats = kernel.Stats{GemmCalls: rep.GemmCalls, GemmFLOPs: rep.GemmFLOPs}
		allocs = rep.Mallocs
		n := float64(len(t.results))
		res.put("worker.rpc_ms", 1000*(te.total.Seconds()-tally.Total)/n)
		res.put("worker.bytes_per_eval", float64(rep.BytesIn+rep.BytesOut)/n)
		res.put("worker.faults", float64(u.faults+t.faults))
		events := c1.events - c0.events
		res.put("obs.events_per_eval", float64(events)/n)
		res.put("obs.trace_bytes_per_eval", float64(b1-b0)/n)
		if events > 0 {
			res.putTimed("obs.record_us", 1e6*(c1.busy-c0.busy).Seconds()/float64(events), (c1.busy - c0.busy).Seconds())
		}
		res.put("checkpoint.count", float64(c1.checkpoints-c0.checkpoints))
		res.put("checkpoint.fsyncs", float64(sync1-sync0))
		res.put("checkpoint.bytes", float64(c1.ckBytes-c0.ckBytes))
	} else {
		te, ok := st.ev.(*search.TrainingEvaluator)
		if !ok {
			return nil, fmt.Errorf("evaluator is %T, not *search.TrainingEvaluator", st.ev)
		}
		layers := &evalLayers{}
		k0, m0 := kernel.ReadStats(), mallocs()
		t, err = s.searchRound(st.p, &replicaEvaluator{inner: te, layers: layers}, e.seed, roundOpts{wrap: wrap})
		if err != nil {
			return nil, err
		}
		k1, m1 := kernel.ReadStats(), mallocs()
		tally = layers.snapshot()
		kstats = kernel.Stats{GemmCalls: k1.GemmCalls - k0.GemmCalls, GemmFLOPs: k1.GemmFLOPs - k0.GemmFLOPs}
		allocs = m1 - m0
	}
	s.checkRound(res, t)
	res.check(t.digest() == u.digest(), "replica evaluator content (rewards by index) differs from Pipeline.NewEvaluator's")
	putEvalLayers(res, tally, kstats, allocs, len(t.results))
	res.check(tally.covered() >= 0.95, "eval.coverage %.4f below 0.95: the layer buckets miss time inside the evaluation", tally.covered())
	if ts.calls > 0 {
		res.putTimed("search.propose_report_us", 1e6*ts.busy.Seconds()/float64(ts.calls), ts.busy.Seconds())
	}
	ut := utilization(t.latencies(), s.slots, t.wall)
	res.put("search.idle_frac", 1-ut)
	errored := 0
	for _, x := range t.results {
		if x.Err != nil {
			errored++
		}
	}
	res.put("search.error_frac", float64(errored)/float64(s.evals))
	q := tailPercentile(s.evals)
	res.put("overhead.evals_per_s", t.evalsPerS()-u.evalsPerS())
	res.put("overhead.eval_p50_s", median(t.latencies())-median(u.latencies()))
	res.put("overhead.eval_tail_s", percentile(t.latencies(), q)-percentile(u.latencies(), q))
	res.put("overhead.utilization", ut-utilization(u.latencies(), s.slots, u.wall))

	if s.scaling {
		w1, err := s.searchRound(st.p, st.ev, e.seed, roundOpts{workers: 1})
		if err != nil {
			return nil, err
		}
		res.check(w1.digest() == u.digest(), "Workers=1 content differs from Workers=%d", s.slots)
		res.put("search.scaling_eff", u.evalsPerS()/(float64(s.slots)*w1.evalsPerS()))
	}

	cycles, err := s.post.cycles(res, st.p, e.seed, 1, 0)
	if err != nil {
		return nil, err
	}
	if err := s.post.check(e, res, cycles, s.name); err != nil {
		return nil, err
	}
	if _, err := s.post.traced(e, res, stg, st.p, cycles[0]); err != nil {
		return nil, err
	}
	return res, nil
}
