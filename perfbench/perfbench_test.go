package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"podnas"
	"podnas/internal/metrics"
	"podnas/internal/obs"
	"podnas/internal/obs/span"
	"podnas/internal/search"
)

// TestMain lets the test binary serve as a pool worker: the isolated smoke
// run re-executes os.Executable() with -worker, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5, 50}, {10, 50}, {20, 50}, {24, 58}, {48, 79}, {100, 90}, {200, 95}, {400, 97}, {2000, 99},
	} {
		q := tailPercentile(c.n)
		if q != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, q, c.want)
		}
		if q > 50 && c.n-nearestRank(q, c.n) < tailBeyond {
			t.Errorf("n=%d: p%d leaves %d samples beyond, want ≥ %d", c.n, q, c.n-nearestRank(q, c.n), tailBeyond)
		}
		if q < 99 && q > 50 && c.n-nearestRank(q+1, c.n) >= tailBeyond {
			t.Errorf("n=%d: p%d is not the highest percentile with %d beyond", c.n, q, tailBeyond)
		}
	}
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(48 - i) // 48 … 1
	}
	if got := percentile(xs, 79); got != 38 {
		t.Errorf("p79 of 1..48 = %v, want 38 (10 samples beyond)", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestUtilizationMatchesMetrics checks the benchmark's utilization against
// internal/metrics on a hand-built set of busy intervals on two slots.
func TestUtilizationMatchesMetrics(t *testing.T) {
	spans := []metrics.Interval{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 3}, {Lo: 0.5, Hi: 2.5}, {Lo: 2.5, Hi: 2.75}}
	var lat []float64
	for _, iv := range spans {
		lat = append(lat, iv.Seconds())
	}
	const slots, wall = 2, 3.0
	want := metrics.UtilizationAUC(spans, slots, wall)
	if got := utilization(lat, slots, wall); math.Abs(got-want) > 1e-15 || math.Abs(want-5.25/6) > 1e-15 {
		t.Fatalf("utilization = %v, metrics.UtilizationAUC = %v, want %v", got, want, 5.25/6)
	}
}

// TestReplicaMatchesEvaluator pins the traced run's equality guard: the
// replica evaluator's rewards are bit-identical to Pipeline.NewEvaluator's,
// with and without a recorder and span planted in the context.
func TestReplicaMatchesEvaluator(t *testing.T) {
	p, err := podnas.NewPipeline(podnas.SmallPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := p.NewEvaluator(2)
	if err != nil {
		t.Fatal(err)
	}
	te := ev.(*search.TrainingEvaluator)
	layers := &evalLayers{}
	rep := &replicaEvaluator{inner: te, layers: layers}
	rs, err := search.NewRandomSearch(p.DefaultSpace(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		a, seed := rs.Propose(), uint64(100+i)
		ctx := context.Background()
		if i%2 == 1 {
			ctx = span.With(obs.WithEval(ctx, obs.NewRing(64), i), span.NewTrace("test"))
		}
		want, err := te.EvaluateCtx(ctx, a, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rep.EvaluateCtx(ctx, a, seed)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s seed %d: replica reward %v, evaluator %v", a.Key(), seed, got, want)
		}
	}
	tally := layers.snapshot()
	if tally.Evals != 4 || tally.Steps == 0 {
		t.Fatalf("tally counted %d evals, %d steps", tally.Evals, tally.Steps)
	}
	if c := tally.covered(); c < 0.9 || c > 1 {
		t.Fatalf("coverage %v outside [0.9, 1]", c)
	}
}

// TestStagedMatchesPipeline pins the staged setup and staged Table I/II
// against NewPipeline and the report calls, bit for bit.
func TestStagedMatchesPipeline(t *testing.T) {
	cfg := podnas.SmallPipelineConfig()
	p, err := podnas.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := newStages()
	sp, err := stagedSetup(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if !samePipeline(sp, p) {
		t.Fatal("staged setup differs from NewPipeline")
	}
	m, err := p.ManualLSTM(16, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Posttrain(2, 3); err != nil {
		t.Fatal(err)
	}
	want, err := runReport(m, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stagedReport(m, p, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.digest() != want.digest() {
		t.Fatalf("staged report %+v differs from %+v", got.Table, want.Table)
	}
	if c := st.covered(); c < 0.9 || c > 1 {
		t.Fatalf("stage coverage %v outside [0.9, 1]", c)
	}
}

// tinyEnv is an env writing under t's temporary directory.
func tinyEnv(t *testing.T, trace bool) env {
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return env{seed: 2, seconds: 0.01, trace: trace, exe: exe, scratch: dir, cache: contentCache{dir: filepath.Join(dir, "cache")}, log: os.Stderr}
}

func tinyPost() postSpec { return postSpec{grid: "small", units: 8, layers: 1, epochs: 2} }

// TestSmoke runs every workload at a tiny size, untraced and traced, twice
// each, and checks the result carries every declared metric and passes its
// checks (the second run exercises the cross-run content cache).
func TestSmoke(t *testing.T) {
	small := podnas.SmallPipelineConfig()
	paper := searchSpec{name: "search_paper", pipeline: small, evals: 4, epochs: 1, slots: 2, minRounds: 1, setups: 1, scaling: true, post: tinyPost(), postPerRound: 1}
	iso := searchSpec{name: "search_isolated_short", pipeline: small, evals: 6, epochs: 1, slots: 2, isolated: true, minRounds: 1, setups: 2, post: tinyPost(), postPerRound: 1}
	for _, w := range []workload{paper.workload(), iso.workload()} {
		for _, trace := range []bool{false, true} {
			e := tinyEnv(t, trace)
			for rep := 0; rep < 2; rep++ {
				res, err := w.run(e)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w.name, trace, err)
				}
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.name, trace, res.correct, res.attempted, res.failed, res.problems)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.metrics) != len(want) {
					t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.metrics), len(want))
				}
				for _, m := range want {
					v := res.value(m.name)
					if !finite(v) || (!trace && v <= 0) {
						t.Errorf("%s: %s = %v", w.name, m.name, v)
					}
				}
				var line map[string]any
				if err := json.Unmarshal(res.json(), &line); err != nil {
					t.Fatalf("%s: result line is not JSON: %v", w.name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark's own
// workload and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads()))
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricName
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark declares %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
