// Command perfbench is podnas's end-to-end benchmark. It runs one named
// workload from a seed for a fixed time budget, checks the program's outputs,
// and prints one JSON result line: the end-to-end metrics, or with -trace 1
// the per-layer breakdown of a separately traced run. README.md in this
// directory describes the workloads and metrics.
//
//	perfbench --workload search_paper --seed 1 --seconds 30 --trace 0
//
// Build and run it through run.sh from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"

	"podnas"
	"podnas/internal/kernel"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is what a workload run gets: its parameters and where it may write.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	exe     string // this binary, re-executed for pool workers
	scratch string // per-run directory, removed when the run ends
	cache   contentCache
	log     io.Writer
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// params are recorded in the run context so a later point can tell a
	// parameter change from a code change.
	params map[string]any
	run    func(env) (*result, error)
}

func workloads() []workload {
	return []workload{
		searchPaper().workload(),
		searchIsolatedShort().workload(),
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: search_paper or search_isolated_short")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured time budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for per-run scratch files and the content cache")
	workerMode := fs.Bool("worker", false, "serve evaluations over stdin/stdout as a pool worker (spawned by the benchmark itself)")
	epochs := fs.Int("epochs", 1, "worker mode: training epochs per evaluation")
	layers := fs.Bool("layers", false, "worker mode: time each layer call and report the totals on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workerMode {
		if err := workerMain(*epochs, *layers); err != nil {
			fmt.Fprintf(stderr, "perfbench worker: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: locating own binary: %v\n", err)
		return 1
	}
	scratch := filepath.Join(*dir, "runs", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := env{
		seed: *seed, seconds: *seconds, trace: *trace == 1, exe: exe,
		scratch: scratch, cache: contentCache{dir: filepath.Join(*dir, "cache")}, log: stderr,
	}
	res, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	if e.trace {
		res.printTable(stderr)
	}
	ctxLine, err := json.Marshal(map[string]any{"context": runContext(w, e, res)})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", ctxLine, res.json())
	return 0
}

// runContext records what makes a point comparable with another: the
// machine's parallelism and SIMD class, the toolchain, and the workload's
// parameters.
func runContext(w workload, e env, res *result) map[string]any {
	c := map[string]any{
		"workload":   w.name,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"trace":      e.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"simd":       kernel.SIMD(),
		"go":         runtime.Version(),
		"params":     w.params,
	}
	for k, v := range res.context {
		c[k] = v
	}
	return c
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	// seconds, for the traced breakdown's time buckets, is the bucket's
	// total time in the run; the breakdown is ordered by it, slowest first.
	seconds float64
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	problems          []string
	// context is what the run learned about its inputs (grid size) for the
	// run-context record.
	context map[string]any
}

func newResult() *result { return &result{correct: true, context: map[string]any{}} }

// recordGrid notes the pipeline's grid shape, Nh ocean points × weeks.
func (r *result) recordGrid(p *podnas.Pipeline) {
	r.context["nh"] = p.Data.Nh()
	r.context["weeks"] = p.Data.Weeks()
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// ordered returns the metrics with time buckets first, slowest first, and
// the rest in the order they were set.
func (r *result) ordered() []metric {
	out := append([]metric(nil), r.metrics...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].seconds > out[j].seconds })
	return out
}

// json renders the result line. Keys keep the ordered() order.
func (r *result) json() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, r.correct, r.attempted, r.failed)
	for i, m := range r.ordered() {
		if i > 0 {
			b.WriteByte(',')
		}
		v := m.value
		if !finite(v) {
			v = 0
		}
		fmt.Fprintf(&b, `%q:{"value":%s,"unit":%q}`, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.Bytes()
}

// printTable writes the traced breakdown, slowest layer first.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintln(w, "per-layer breakdown (time buckets slowest first, then counts and ratios):")
	for _, m := range r.ordered() {
		if m.seconds > 0 {
			fmt.Fprintf(w, "  %-28s %14.6g %-8s (%.3f s total)\n", m.name, m.value, m.unit, m.seconds)
		} else {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
}

// peakRSSMB is the peak resident set size of this process and, with
// children, of the largest reaped child process.
func peakRSSMB(children bool) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	peak := ru.Maxrss // KiB on Linux
	if children {
		var rc syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &rc); err == nil && rc.Maxrss > peak {
			peak = rc.Maxrss
		}
	}
	return float64(peak) / 1024
}
