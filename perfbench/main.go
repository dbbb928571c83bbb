// Command perfbench is the repository benchmark: one process, one
// in-process blkd on 127.0.0.1 (or the blklint analyzers), and a single
// closed-loop client that sends its next operation only after the
// previous one has returned.
//
// Usage (from the checkout root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics of the workload;
// with --trace 1 it replays a fixed number of operations and times each
// layer from outside, by calling that layer's public functions on the
// same generated inputs. The last line of standard output is the result
// object; the line before it records the host and the inputs. Any
// output-check mismatch is a failed operation and makes the exit code 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings plus the sizes the self-tests
// shrink.
type options struct {
	workload string
	seed     int64
	timed    time.Duration
	trace    bool
	root     string
	build    string // scratch directory for the unpacked lint input and span files
	lintTree string // unpacked pinned lint input, when the run needs it
	sizes    sizes
}

// sizes are the workload dimensions. defaultSizes is what the command
// runs; the self-tests pass tiny ones.
type sizes struct {
	setupReps     int // set-ups per run; setup_s is their median
	slowSetupReps int // set-ups per run of a workload whose set-up takes seconds
	hotSet        int // distinct scenarios serve-hot cycles through
	hotWarmup     int // untimed hot-set requests after the cache is warm
	sweepWarmup   int // untimed walk steps on a throwaway server
	checkSample   int // distinct scenarios byte-compared against the scratch engine
	fleetDevices  int // devices per fleet request
	serveTraceOps int // operations the traced serve replay sends
	countOps      int // requests the twin server sees before its counts are read
	coldEvery     int // traced serve ops between cold-engine and fold probes
	allocOps      int // operations whose allocations are counted
	fleetTraceOps int // fleet requests the traced run sends
	lintTracePass int // full analysis passes the traced run times
}

var defaultSizes = sizes{
	setupReps:     5,
	slowSetupReps: 3,
	hotSet:        256,
	hotWarmup:     2048,
	sweepWarmup:   2000,
	checkSample:   24,
	fleetDevices:  20000,
	serveTraceOps: 4000,
	countOps:      20000,
	coldEvery:     16,
	allocOps:      200,
	fleetTraceOps: 8,
	lintTracePass: 5,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and keeps the first failure for the log.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sizes: defaultSizes}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 20, "length of the timed phase in seconds")
	tr := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed phase")
	fs.StringVar(&o.root, "root", ".", "checkout root (holds go.mod and perfbench/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.timed = time.Duration(*secs) * time.Second
	o.trace = *tr == 1
	w, ok := workloads[o.workload]
	if !ok || *secs < 1 || (*tr != 0 && *tr != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.root = root
	o.build = filepath.Join(root, ".bench_build")
	runtime.GOMAXPROCS(runtime.NumCPU())
	if o.trace || w.name == "lint-module" {
		if o.lintTree, err = pinnedTree(filepath.Join(o.root, lintTreeArchive), o.build); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	meta, err := hostMeta(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res result
	var info map[string]any
	if o.trace {
		res, info, err = runTraced(o, w)
	} else {
		res, info, err = runTimed(o, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for k, v := range info {
		meta[k] = v
	}
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workload is one traffic shape. setup performs one full bring-up; the
// timed phase then calls op until the deadline.
type workload struct {
	name string
	// windowed takes latencies per chunk of the timed phase (see
	// summarize); it needs thousands of operations per run, which the
	// serve workloads have and fleet-batch and lint-module do not.
	windowed bool
	// slowSetup marks a set-up that takes seconds; it is repeated
	// slowSetupReps times instead of setupReps.
	slowSetup bool
	setup     func(o options) (bench, error)
}

func (w workload) setupReps(s sizes) int {
	if w.slowSetup {
		return s.slowSetupReps
	}
	return s.setupReps
}

// bench is a workload brought up and ready to time.
type bench interface {
	// op performs operation i and reports a failed or wrong result.
	op(i int) error
	// check runs the post-phase output checks; each mismatch is a
	// failed operation.
	check(t *tally)
	// info describes the run for the metadata line.
	info() map[string]any
	close() error
}

var workloads = map[string]workload{
	"serve-hot":   {name: "serve-hot", windowed: true, setup: setupServeHot},
	"serve-sweep": {name: "serve-sweep", windowed: true, setup: setupServeSweep},
	"fleet-batch": {name: "fleet-batch", setup: setupFleet},
	"lint-module": {name: "lint-module", slowSetup: true, setup: setupLint},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setUp brings the workload up several times and keeps the last bench;
// setup_s is the median bring-up time.
func setUp(o options, w workload) (bench, float64, error) {
	var b bench
	reps := w.setupReps(o.sizes)
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		nb, err := w.setup(o)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	return b, median(times), nil
}

// runTimed is the end-to-end run: set up, time single-client operations
// until the deadline, force GCs to read the live heap, then check the
// outputs.
func runTimed(o options, w workload) (result, map[string]any, error) {
	b, setupS, err := setUp(o, w)
	if err != nil {
		return result{}, nil, err
	}
	defer func() { _ = b.close() }()

	t, ph := timePhase(b, o.timed, w.windowed)
	timedOps := t.attempted
	// The per-op samples are out of scope now, so heap_mb is the
	// program's live memory, not the benchmark's bookkeeping. The second
	// GC empties the sync.Pool victim caches the first one leaves.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.check(&t)
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	if timedOps == 0 {
		return result{}, nil, errors.New("no operation completed in the timed phase")
	}
	info := b.info()
	info["timed_ops"] = timedOps
	// p99 is recorded but not a metric: on a shared 2-vCPU host it is set
	// by host preemption and its run-to-run spread exceeds any usable bound.
	info["latency_p99_ms"] = ph.p99
	info["setup_reps"] = w.setupReps(o.sizes)
	info["windows"] = windows
	info["windowed_latency"] = w.windowed
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":          {setupS, "s"},
			"throughput_per_s": {ph.rate, "1/s"},
			"latency_p50_ms":   {ph.p50, "ms"},
			"latency_p90_ms":   {ph.p90, "ms"},
			"heap_mb":          {float64(ms.HeapAlloc) / 1e6, "MB"},
		},
	}, info, nil
}

// timePhase calls b.op back to back until d has passed and returns the
// tally and the summarized phase.
func timePhase(b bench, d time.Duration, windowed bool) (tally, phase) {
	var t tally
	lat := make([]float64, 0, 1<<16)
	ends := make([]time.Duration, 0, 1<<16)
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; ; i++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		t.note(b.op(i))
		t1 := time.Now()
		lat = append(lat, float64(t1.Sub(t0))/1e6)
		ends = append(ends, t1.Sub(start))
	}
	return t, summarize(lat, ends, windowed)
}
