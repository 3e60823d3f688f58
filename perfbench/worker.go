package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"podnas"
	"podnas/internal/kernel"
	"podnas/internal/search"
	"podnas/internal/worker"
)

// workerReportPrefix starts the one stderr line a benchmark worker writes
// when it exits: its own layer timings and counters, which the benchmark
// process cannot observe from its side of the pipe.
const workerReportPrefix = "perfbench-worker-report "

// workerReport is what one worker process measured over its lifetime after
// its pipeline was built.
type workerReport struct {
	BytesIn   int64     `json:"bytes_in"`
	BytesOut  int64     `json:"bytes_out"`
	GemmCalls uint64    `json:"gemm_calls"`
	GemmFLOPs uint64    `json:"gemm_flops"`
	Mallocs   uint64    `json:"mallocs"`
	Layers    evalTally `json:"layers"`
}

func (r *workerReport) add(o workerReport) {
	r.BytesIn += o.BytesIn
	r.BytesOut += o.BytesOut
	r.GemmCalls += o.GemmCalls
	r.GemmFLOPs += o.GemmFLOPs
	r.Mallocs += o.Mallocs
	r.Layers.add(o.Layers)
}

// workerMain is the -worker mode: the same NewPipeline → NewEvaluator →
// worker.Serve path as `nasrun -worker`, with the pipe's bytes counted. With
// layers set it serves the replica evaluator, which times every layer call.
func workerMain(epochs int, layers bool) error {
	p, err := podnas.NewPipeline(podnas.SmallPipelineConfig())
	if err != nil {
		return err
	}
	ev, err := p.NewEvaluator(epochs)
	if err != nil {
		return err
	}
	var tally *evalLayers
	if layers {
		te, ok := ev.(*search.TrainingEvaluator)
		if !ok {
			return fmt.Errorf("worker: evaluator is %T, not *search.TrainingEvaluator", ev)
		}
		tally = &evalLayers{}
		ev = &replicaEvaluator{inner: te, layers: tally}
	}
	k0, m0 := kernel.ReadStats(), mallocs()
	in := &countingReader{r: os.Stdin}
	out := &countingWriter{w: os.Stdout}
	serveErr := worker.Serve(in, out, ev, worker.ServeOptions{})
	k1, m1 := kernel.ReadStats(), mallocs()
	rep := workerReport{
		BytesIn: in.n.Load(), BytesOut: out.n.Load(),
		GemmCalls: k1.GemmCalls - k0.GemmCalls, GemmFLOPs: k1.GemmFLOPs - k0.GemmFLOPs,
		Mallocs: m1 - m0,
	}
	if tally != nil {
		rep.Layers = tally.snapshot()
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s%s\n", workerReportPrefix, line)
	return serveErr
}

// workerCommand re-executes this binary in -worker mode. Both sides use the
// default one-second heartbeat. Each worker's stderr goes to sink, which
// keeps the report lines and forwards the rest.
func workerCommand(exe string, epochs int, layers bool, sink *workerSink) func(int, int) *exec.Cmd {
	return func(int, int) *exec.Cmd {
		args := []string{"-worker", "-epochs", strconv.Itoa(epochs)}
		if layers {
			args = append(args, "-layers")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = sink
		return cmd
	}
}

// workerSink collects the stderr of every worker in a pool. Complete only
// once the pool is closed (each process is reaped, and exec copies its
// stderr to the end, before Pool.Close returns).
type workerSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *workerSink) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(b)
}

// reports parses the collected report lines, summed over workers, and
// copies every other line to w.
func (s *workerSink) reports(w io.Writer) (workerReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum workerReport
	sc := bufio.NewScanner(bytes.NewReader(s.buf.Bytes()))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, workerReportPrefix)
		if !ok {
			fmt.Fprintln(w, line)
			continue
		}
		var r workerReport
		if err := json.Unmarshal([]byte(rest), &r); err != nil {
			return sum, fmt.Errorf("worker report %q: %w", rest, err)
		}
		sum.add(r)
	}
	return sum, sc.Err()
}

// countingReader and countingWriter count the bytes of one pipe direction.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	n atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// mallocs is the process-wide heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
