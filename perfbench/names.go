package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
)

// metricName is one metric the benchmark reports: its name and unit.
type metricName struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload;
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricName{
	{"evals_per_s", "1/s"},
	{"eval_p50_s", "s"},
	{"eval_tail_s", "s"},
	{"utilization", "ratio"},
	{"setup_s", "s"},
	{"posttrain_s", "s"},
	{"report_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints, on every workload; a
// layer a workload does not exercise reads 0. BENCHMARK.json lists the same
// names and units.
var perLayer = []metricName{
	// Setup: the staged NewPipeline.
	{"sst.generate_s", "s"},
	{"pod.compute_s", "s"},
	{"linalg.eigen_s", "s"},
	{"pod.project_s", "s"},
	{"window.build_s", "s"},
	{"worker.ready_s", "s"},
	// One evaluation, per eval.
	{"arch.build_ms", "ms"},
	{"nn.gather_ms", "ms"},
	{"nn.forward_ms", "ms"},
	{"nn.loss_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.adam_ms", "ms"},
	{"nn.score_ms", "ms"},
	{"obs.epoch_emit_ms", "ms"},
	// Kernel counters in the evaluating process.
	{"kernel.gflop_per_eval", "GFLOP"},
	{"kernel.gemm_calls_per_step", "count"},
	{"kernel.gflops", "GFLOP/s"},
	{"nn.steps_per_eval", "count"},
	{"nn.allocs_per_step", "count"},
	// Search runner.
	{"search.propose_report_us", "us"},
	{"search.idle_frac", "ratio"},
	{"search.scaling_eff", "ratio"},
	{"search.error_frac", "ratio"},
	// Worker transport.
	{"worker.rpc_ms", "ms"},
	{"worker.bytes_per_eval", "B"},
	{"worker.faults", "count"},
	// Program telemetry.
	{"obs.events_per_eval", "count"},
	{"obs.trace_bytes_per_eval", "B"},
	{"obs.record_us", "us"},
	// Checkpointing.
	{"checkpoint.count", "count"},
	{"checkpoint.fsyncs", "count"},
	{"checkpoint.bytes", "B"},
	// Posttraining and reporting.
	{"nn.posttrain_epoch_ms", "ms"},
	{"science.r2_s", "s"},
	{"science.predict_s", "s"},
	{"pod.reconstruct_s", "s"},
	{"sst.comparator_s", "s"},
	{"science.compare_s", "s"},
	// Attribution checks.
	{"eval.coverage", "ratio"},
	{"science.coverage", "ratio"},
	// Tracing overhead: traced minus untraced, per end-to-end metric.
	{"overhead.evals_per_s", "1/s"},
	{"overhead.eval_p50_s", "s"},
	{"overhead.eval_tail_s", "s"},
	{"overhead.utilization", "ratio"},
	{"overhead.setup_s", "s"},
	{"overhead.posttrain_s", "s"},
	{"overhead.report_s", "s"},
}

// unitOf returns the unit a metric name is declared with.
func unitOf(name string) string {
	for _, list := range [][]metricName{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// put sets (or overwrites) a declared metric.
func (r *result) put(name string, v float64) { r.putTimed(name, v, 0) }

// putTimed sets a declared time-bucket metric with its total seconds, which
// orders the breakdown.
func (r *result) putTimed(name string, v, seconds float64) {
	m := metric{name, unitOf(name), v, seconds}
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = m
			return
		}
	}
	r.metrics = append(r.metrics, m)
}

// zeroLayers declares every per-layer metric at 0, so each traced run prints
// the full list whatever its workload exercises.
func (r *result) zeroLayers() {
	for _, m := range perLayer {
		r.put(m.name, 0)
	}
}

// contentCache remembers, per checkout, the content digest the first run of
// a (workload, seed, parameters) key produced, so every later run of the
// same seed is checked against it.
type contentCache struct{ dir string }

// match stores digest under key if the key is new and reports whether it
// equals the stored digest.
func (c contentCache) match(key, digest string) (bool, error) {
	if prev, ok := c.lookup(key); ok {
		return prev == digest, nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return false, err
	}
	path := c.path(key)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(key+"\n"+digest+"\n"), 0o644); err != nil {
		return false, err
	}
	return true, os.Rename(tmp, path)
}

func (c contentCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:12])+".txt")
}

// lookup returns the digest stored under key, if any.
func (c contentCache) lookup(key string) (string, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return "", false
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1], true
}
