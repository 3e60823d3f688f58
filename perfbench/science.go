package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"podnas"
	"podnas/internal/kernel"
	"podnas/internal/linalg"
	"podnas/internal/nn"
	"podnas/internal/pod"
	"podnas/internal/sst"
	"podnas/internal/tensor"
	"podnas/internal/window"
)

// stages accumulates named time buckets around layer calls, and the time of
// the code enclosing them, for the setup and report breakdowns.
type stages struct {
	seconds   map[string]float64
	enclosing float64
}

func newStages() *stages { return &stages{seconds: map[string]float64{}} }

func (s *stages) since(name string, t0 time.Time) { s.seconds[name] += time.Since(t0).Seconds() }

// covered is the attributed share of the enclosing time.
func (s *stages) covered() float64 {
	if s.enclosing <= 0 {
		return 0
	}
	var sum float64
	for _, v := range s.seconds {
		sum += v
	}
	return sum / s.enclosing
}

// stagedSetup rebuilds NewPipeline's data artifacts one layer call at a
// time: sst.Generate → pod.Compute → Project → windowing. The caller checks
// the result against NewPipeline's bit for bit.
func stagedSetup(cfg podnas.PipelineConfig, st *stages) (*podnas.Pipeline, error) {
	start := time.Now()
	defer func() { st.enclosing += time.Since(start).Seconds() }()
	t0 := time.Now()
	data, err := sst.Generate(cfg.Data)
	st.since("sst.generate_s", t0)
	if err != nil {
		return nil, err
	}
	p := &podnas.Pipeline{Cfg: cfg, Data: data, NumTrain: data.NumTrain()}
	t0 = time.Now()
	p.Basis, err = pod.Compute(data.TrainSnapshots(), cfg.Nr)
	st.since("pod.compute_s", t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	p.Coeff = p.Basis.Project(data.Snapshots)
	st.since("pod.project_s", t0)

	t0 = time.Now()
	defer st.since("window.build_s", t0)
	trainCoeff := tensor.NewMatrix(cfg.Nr, p.NumTrain)
	testCoeff := tensor.NewMatrix(cfg.Nr, data.Weeks()-p.NumTrain)
	for r := 0; r < cfg.Nr; r++ {
		copy(trainCoeff.Row(r), p.Coeff.Row(r)[:p.NumTrain])
		copy(testCoeff.Row(r), p.Coeff.Row(r)[p.NumTrain:])
	}
	all, err := window.Build(trainCoeff, cfg.K)
	if err != nil {
		return nil, err
	}
	rawTrain, rawVal, err := all.Split(cfg.TrainFrac, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rawTest, err := window.Build(testCoeff, cfg.K)
	if err != nil {
		return nil, err
	}
	p.Scaler = window.FitMinMax(rawTrain.X, cfg.ScaleBound)
	scaled := func(d *window.Dataset) *window.Dataset {
		return &window.Dataset{X: p.Scaler.Transform(d.X), Y: p.Scaler.Transform(d.Y), K: cfg.K, Nr: cfg.Nr}
	}
	p.TrainWin, p.ValWin, p.TestWin = scaled(rawTrain), scaled(rawVal), scaled(rawTest)
	return p, nil
}

// samePipeline reports whether the staged artifacts equal NewPipeline's bit
// for bit: coefficients, basis, and every scaled window set.
func samePipeline(a, b *podnas.Pipeline) bool {
	return sameBits(a.Coeff.Data, b.Coeff.Data) &&
		sameBits(a.Basis.Phi.Data, b.Basis.Phi.Data) &&
		sameBits(a.Basis.Mean, b.Basis.Mean) &&
		sameWindows(a.TrainWin, b.TrainWin) && sameWindows(a.ValWin, b.ValWin) && sameWindows(a.TestWin, b.TestWin)
}

func sameWindows(a, b *window.Dataset) bool {
	return sameBits(a.X.Data, b.X.Data) && sameBits(a.Y.Data, b.Y.Data)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// eigenSeconds times linalg.SymEigen alone on the workload's own snapshot
// Gram matrix, the centred SᵀS pod.Compute diagonalizes, and checks that it
// yields the basis's eigenvalues.
func eigenSeconds(p *podnas.Pipeline) (float64, bool, error) {
	s := p.Data.TrainSnapshots()
	mean := s.RowMeans()
	for i := 0; i < s.Rows; i++ {
		row := s.Row(i)
		for j := range row {
			row[j] -= mean[i]
		}
	}
	gram := tensor.Gram(s)
	t0 := time.Now()
	eig, err := linalg.SymEigen(gram)
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, false, err
	}
	return d, sameBits(eig.Values, p.Basis.Eigenvalues), nil
}

// report is the Table I/II outcome for one posttrained model.
type report struct {
	TrainR2, TestR2 float64
	Table           *podnas.RegionalRMSETable
}

func (r report) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%016x %016x %d\n", math.Float64bits(r.TrainR2), math.Float64bits(r.TestR2), r.Table.Weeks)
	for _, row := range [][]float64{r.Table.Predicted, r.Table.CESM, r.Table.HYCOM} {
		for _, v := range row {
			fmt.Fprintf(h, "%016x ", math.Float64bits(v))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runReport is the report phase: Table II's TrainR2/TestR2 and Table I's
// RegionalRMSE over the HYCOM window.
func runReport(m *podnas.Model, p *podnas.Pipeline) (report, error) {
	lo, hi := p.HYCOMWindow()
	r := report{TrainR2: m.TrainR2(), TestR2: m.TestR2()}
	var err error
	r.Table, err = m.RegionalRMSE(podnas.EasternPacific, lo, hi)
	return r, err
}

// stagedReport is runReport with the Table I loop rebuilt from its layer
// calls — PredictCoefficients, ReconstructSnapshot, the CESM and HYCOM
// comparators — in RegionalRMSE's order, so its table is bit-identical.
func stagedReport(m *podnas.Model, p *podnas.Pipeline, st *stages) (report, error) {
	start := time.Now()
	defer func() { st.enclosing += time.Since(start).Seconds() }()
	t0 := time.Now()
	r := report{TrainR2: m.TrainR2(), TestR2: m.TestR2()}
	st.since("science.r2_s", t0)

	t0 = time.Now()
	k := p.Cfg.K
	startWeek, endWeek := p.HYCOMWindow()
	startWeek = max(startWeek, k)
	endWeek = min(endWeek, p.Data.Weeks()-k)
	if endWeek <= startWeek {
		return r, fmt.Errorf("empty forecast range [%d, %d)", startWeek, endWeek)
	}
	idx := p.Data.RegionOceanIndices(podnas.EasternPacific)
	if len(idx) == 0 {
		return r, fmt.Errorf("region contains no ocean points")
	}
	sumP, sumC, sumH := make([]float64, k), make([]float64, k), make([]float64, k)
	count := 0
	st.since("science.compare_s", t0)
	for t := startWeek; t < endWeek; t++ {
		t0 = time.Now()
		coeff, err := m.PredictCoefficients(t)
		st.since("science.predict_s", t0)
		if err != nil {
			return r, err
		}
		for lead := 1; lead <= k; lead++ {
			week := t + lead - 1
			t0 = time.Now()
			pred := p.Basis.ReconstructSnapshot(coeff.Row(lead - 1))
			st.since("pod.reconstruct_s", t0)
			t0 = time.Now()
			cesm := p.Data.CESMField(week)
			hycom := p.Data.HYCOMField(week, lead)
			st.since("sst.comparator_s", t0)
			t0 = time.Now()
			for _, i := range idx {
				truth := p.Data.Snapshots.At(i, week)
				dp := pred[i] - truth
				dc := cesm[i] - truth
				dh := hycom[i] - truth
				sumP[lead-1] += dp * dp
				sumC[lead-1] += dc * dc
				sumH[lead-1] += dh * dh
			}
			st.since("science.compare_s", t0)
		}
		count++
	}
	t0 = time.Now()
	n := float64(count * len(idx))
	tab := &podnas.RegionalRMSETable{Predicted: make([]float64, k), CESM: make([]float64, k), HYCOM: make([]float64, k), Weeks: count}
	for lead := 0; lead < k; lead++ {
		tab.Predicted[lead] = math.Sqrt(sumP[lead] / n)
		tab.CESM[lead] = math.Sqrt(sumC[lead] / n)
		tab.HYCOM[lead] = math.Sqrt(sumH[lead] / n)
	}
	r.Table = tab
	st.since("science.compare_s", t0)
	return r, nil
}

// posttrainConfig is Model.Posttrain's training configuration, with cb as
// the epoch callback.
func posttrainConfig(epochs int, seed uint64, cb func(int, float64)) nn.TrainConfig {
	return nn.TrainConfig{Epochs: epochs, BatchSize: 32, LR: 0.001, Seed: seed, EpochCallback: cb}
}

// posttrained is one timed posttraining.
type posttrained struct {
	losses []float64
	wall   float64
}

// posttrain runs Model.Posttrain's training (nn.Train with its config) on
// m, recording each epoch's loss. The traced run checks that its losses
// equal Model.Posttrain's bit for bit.
func posttrain(m *podnas.Model, p *podnas.Pipeline, epochs int, seed uint64) (posttrained, error) {
	var out posttrained
	start := time.Now()
	cfg := posttrainConfig(epochs, seed, func(_ int, l float64) { out.losses = append(out.losses, l) })
	_, err := nn.Train(m.Graph, p.TrainWin.X, p.TrainWin.Y, cfg)
	out.wall = time.Since(start).Seconds()
	return out, err
}

// lossDigest fingerprints a loss trace bit for bit.
func lossDigest(losses []float64) string {
	h := sha256.New()
	for _, l := range losses {
		fmt.Fprintf(h, "%016x\n", math.Float64bits(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference holds the values the benchmark checks its reports against.
// Comparator rows depend only on the data set and are checked bit for bit
// on every seed; the model's scores are checked on the reference seed only,
// within Tolerance.
type reference struct {
	Grids map[string]struct {
		CESM  []float64 `json:"cesm"`
		HYCOM []float64 `json:"hycom"`
	} `json:"grids"`
	Post struct {
		Seed      uint64  `json:"seed"`
		SIMD      string  `json:"simd"`
		Tolerance float64 `json:"tolerance"`
		// CrossSIMD is the tolerance on a machine whose kernel.SIMD() class
		// differs from the recorded one: FMA and tiling reorder the sums.
		CrossSIMD float64   `json:"cross_simd_tolerance"`
		TrainR2   float64   `json:"train_r2"`
		TestR2    float64   `json:"test_r2"`
		Predicted []float64 `json:"predicted_rmse"`
	} `json:"post"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// postSpec is the phase every workload ends with: posttrain the paper's
// LSTM baseline and report Tables I/II on it. The seed sets the model's
// initialization and batch order; the cost does not depend on it.
type postSpec struct {
	grid   string // reference.json key of the grid's comparator rows
	units  int    // ManualLSTM width
	layers int    // ManualLSTM depth
	epochs int    // posttraining epochs
	// checkReference compares TrainR2/TestR2/Predicted against
	// reference.json on its seed.
	checkReference bool
}

func (ps postSpec) model() string { return fmt.Sprintf("ManualLSTM(%d,%d)", ps.units, ps.layers) }

// cycle is one posttrain+report pass.
type cycle struct {
	post   posttrained
	rep    report
	repSec float64
}

// cycle posttrains a fresh model and reports on it.
func (ps postSpec) cycle(p *podnas.Pipeline, seed uint64) (cycle, error) {
	var c cycle
	runtime.GC()
	m, err := p.ManualLSTM(ps.units, ps.layers, seed)
	if err != nil {
		return c, err
	}
	if c.post, err = posttrain(m, p, ps.epochs, seed); err != nil {
		return c, fmt.Errorf("posttrain: %w", err)
	}
	t0 := time.Now()
	c.rep, err = runReport(m, p)
	c.repSec = time.Since(t0).Seconds()
	return c, err
}

// cycles runs at least n cycles, and more until budget seconds have passed
// since the first began.
func (ps postSpec) cycles(res *result, p *podnas.Pipeline, seed uint64, n int, budget float64) ([]cycle, error) {
	var out []cycle
	start := time.Now()
	for len(out) < n || time.Since(start).Seconds() < budget {
		c, err := ps.cycle(p, seed)
		res.attempted += 2
		if err != nil {
			res.failed += 2
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// check applies the output checks: every cycle identical (training is
// deterministic), comparator rows exact, scores sane, the reference seed's
// scores within tolerance, and the content equal to earlier runs' of the
// same seed under key.
func (ps postSpec) check(e env, res *result, cycles []cycle, key string) error {
	first := cycles[0]
	for i, c := range cycles[1:] {
		res.check(lossDigest(c.post.losses) == lossDigest(first.post.losses), "cycle %d losses differ from cycle 0", i+1)
		res.check(c.rep.digest() == first.rep.digest(), "cycle %d report differs from cycle 0", i+1)
	}
	res.check(len(first.post.losses) == ps.epochs, "posttraining ran %d of %d epochs", len(first.post.losses), ps.epochs)
	res.check(finite(first.rep.TrainR2) && first.rep.TrainR2 <= 1, "TrainR2 %v not finite or above 1", first.rep.TrainR2)
	res.check(finite(first.rep.TestR2) && first.rep.TestR2 <= 1, "TestR2 %v not finite or above 1", first.rep.TestR2)
	for _, v := range first.rep.Table.Predicted {
		res.check(finite(v) && v > 0, "predicted RMSE %v not finite and positive", v)
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	g, ok := ref.Grids[ps.grid]
	if !ok {
		return fmt.Errorf("reference.json has no comparator rows for grid %q", ps.grid)
	}
	res.check(sameBits(first.rep.Table.CESM, g.CESM), "Table I CESM row %v differs from the reference %v", first.rep.Table.CESM, g.CESM)
	res.check(sameBits(first.rep.Table.HYCOM, g.HYCOM), "Table I HYCOM row %v differs from the reference %v", first.rep.Table.HYCOM, g.HYCOM)
	if rs := ref.Post; ps.checkReference && e.seed == rs.Seed {
		tol := rs.Tolerance
		if kernel.SIMD() != rs.SIMD {
			tol = rs.CrossSIMD
		}
		near := func(got, want float64) bool { return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want)) }
		res.check(near(first.rep.TrainR2, rs.TrainR2), "TrainR2 %v, reference %v", first.rep.TrainR2, rs.TrainR2)
		res.check(near(first.rep.TestR2, rs.TestR2), "TestR2 %v, reference %v", first.rep.TestR2, rs.TestR2)
		for i, v := range first.rep.Table.Predicted {
			res.check(i < len(rs.Predicted) && near(v, rs.Predicted[i]), "predicted RMSE at lead %d %v, reference %v", i+1, v, rs.Predicted)
		}
	}
	key = fmt.Sprintf("%s post seed=%d model=%s epochs=%d", key, e.seed, ps.model(), ps.epochs)
	same, err := e.cache.match(key, lossDigest(first.post.losses)+" "+first.rep.digest())
	if err != nil {
		return err
	}
	res.check(same, "posttraining or report content differs from an earlier run of seed %d", e.seed)
	return nil
}

// put records the phase's end-to-end metrics.
func (ps postSpec) put(res *result, cycles []cycle) {
	var post, rep []float64
	for _, c := range cycles {
		post = append(post, c.post.wall)
		rep = append(rep, c.repSec)
	}
	res.put("posttrain_s", median(post))
	res.put("report_s", median(rep))
}

// traced is the phase's per-layer pass after the untraced cycle u:
// Model.Posttrain and the replica posttraining, both checked against u's
// losses bit for bit, then the staged report on the replica's model,
// checked against u's report.
func (ps postSpec) traced(e env, res *result, st *stages, p *podnas.Pipeline, u cycle) (tracedPost, error) {
	m, err := p.ManualLSTM(ps.units, ps.layers, e.seed)
	if err != nil {
		return tracedPost{}, err
	}
	losses, err := m.Posttrain(ps.epochs, e.seed)
	if err != nil {
		return tracedPost{}, err
	}
	res.check(lossDigest(losses) == lossDigest(u.post.losses), "Model.Posttrain losses differ from the benchmark's posttraining")
	if m, err = p.ManualLSTM(ps.units, ps.layers, e.seed); err != nil {
		return tracedPost{}, err
	}
	tp, err := tracedPosttrain(res, m, p, ps.epochs, e.seed, u.post)
	if err != nil {
		return tp, err
	}
	return tp, tracedReport(res, st, m, p, u.rep, u.repSec)
}

// gridName records a grid's name and lon×lat resolution; the run adds the
// ocean-point count once its pipeline is built.
func gridName(name string, cfg sst.Config) string {
	return fmt.Sprintf("%s (%dx%d lon×lat)", name, cfg.LonN, cfg.LatN)
}
