package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/lint"
)

// tinySizes shrinks every workload so the self-tests run in seconds.
var tinySizes = sizes{
	setupReps:     1,
	slowSetupReps: 1,
	hotSet:        8,
	hotWarmup:     8,
	sweepWarmup:   8,
	checkSample:   3,
	fleetDevices:  200,
	serveTraceOps: 24,
	countOps:      40,
	coldEvery:     4,
	allocOps:      4,
	fleetTraceOps: 2,
	lintTracePass: 1,
}

// specMetrics reads the metric names and units BENCHMARK.json declares.
func specMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not define", w.Name)
		}
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyOptions(t *testing.T, workload string) options {
	t.Helper()
	build := t.TempDir()
	tree, err := pinnedTree(filepath.Join("testdata", "linttree.tar.gz"), build)
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 3, timed: 300 * time.Millisecond,
		root: "..", build: build, lintTree: tree, sizes: tinySizes}
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics %v, BENCHMARK.json declares %d", len(got), names, len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
	}
}

// Every workload, timed and traced at a tiny size, emits exactly the
// metrics BENCHMARK.json declares, each with its unit, and passes its
// output checks.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := specMetrics(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o := tinyOptions(t, name)
			res, _, err := runTimed(o, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("timed run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, endToEnd)

			res, _, err = runTraced(o, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, perLayer)
		})
	}
}

// A served body that differs from the scratch engine's by one byte
// fails the output check, and so does a timed op whose body differs.
func TestCorruptedBodyFailsCheck(t *testing.T) {
	o := tinyOptions(t, "serve-hot")
	b, err := setupServeHot(o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.close() }()
	h := b.(*serveHot)

	var clean tally
	h.check(&clean)
	if clean.failed != 0 || clean.attempted == 0 {
		t.Fatalf("clean check: %d of %d failed: %v", clean.failed, clean.attempted, clean.firstErr)
	}

	h.want[0] = bytes.Clone(h.want[0])
	h.want[0][len(h.want[0])/2] ^= 1
	for i, k := range h.order {
		if k == 0 && h.op(i) == nil {
			t.Error("timed op accepted a body that differs from the scenario's first response")
		}
	}
	var bad tally
	h.check(&bad)
	if bad.failed == 0 {
		t.Error("output check passed a corrupted body")
	}
}

// The fleet and lint comparisons reject a changed aggregate and a
// changed finding list.
func TestFleetAndLintMismatchesFail(t *testing.T) {
	resp := api.FleetResponse{Devices: 10, Unique: 2, Scheme: "burstlink"}
	if err := sameFleet(resp, resp); err != nil {
		t.Fatal(err)
	}
	other := resp
	other.Unique = 3
	if sameFleet(resp, other) == nil {
		t.Error("sameFleet accepted a different aggregate")
	}
	if checkFleet([]byte(`{"devices":5}`), 10) == nil {
		t.Error("checkFleet accepted a fleet response of the wrong size")
	}
	want := []lint.Finding{{Analyzer: "parcheck", Message: "raw go statement"}}
	if sameFindings(nil, want) == nil {
		t.Error("sameFindings accepted a pass that lost a finding")
	}
}

// The generators are pure functions of the seed.
func TestGeneratorsArePureFunctionsOfSeed(t *testing.T) {
	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	walkPrefix := func(seed int64, n int) []api.SessionRequest {
		w := newWalk(seed)
		out := make([]api.SessionRequest, n)
		for i := range out {
			out[i] = w.next()
		}
		return out
	}

	if !bytes.Equal(encode(hotSet(7, 256)), encode(hotSet(7, 256))) {
		t.Error("hot set differs between two calls with one seed")
	}
	if bytes.Equal(encode(hotSet(7, 256)), encode(hotSet(8, 256))) {
		t.Error("hot set is the same for two seeds")
	}
	if !reflect.DeepEqual(hotOrder(7, 256), hotOrder(7, 256)) || reflect.DeepEqual(hotOrder(7, 256), hotOrder(8, 256)) {
		t.Error("hot-set order is not a function of the seed")
	}
	if !bytes.Equal(encode(walkPrefix(7, 500)), encode(walkPrefix(7, 500))) {
		t.Error("walk differs between two walks with one seed")
	}
	if bytes.Equal(encode(walkPrefix(7, 500)), encode(walkPrefix(8, 500))) {
		t.Error("walk is the same for two seeds")
	}
	if newFleetSeeds(7) != newFleetSeeds(7) || newFleetSeeds(7) == newFleetSeeds(8) {
		t.Error("fleet seeds are not a function of the seed")
	}

	seen := make(map[string]bool)
	for _, r := range hotSet(7, 256) {
		seen[r.Canonical()] = true
	}
	if len(seen) != 256 {
		t.Errorf("hot set holds %d distinct scenarios, want 256", len(seen))
	}

	// Each walk step moves exactly one knob.
	steps := walkPrefix(7, 2000)
	for i := 1; i < len(steps); i++ {
		a, b := steps[i-1], steps[i]
		moved := 0
		for _, diff := range []bool{a.Scheme != b.Scheme, a.Resolution != b.Resolution, a.FPS != b.FPS,
			a.Seconds != b.Seconds, a.Bitrate != b.Bitrate} {
			if diff {
				moved++
			}
		}
		if moved != 1 {
			t.Fatalf("walk step %d moved %d knobs: %+v -> %+v", i, moved, a, b)
		}
	}
}

// A missing or altered pinned tree is an error, never a fallback to the
// working tree.
func TestPinnedTreeFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	if _, err := pinnedTree(filepath.Join(dir, "missing.tar.gz"), dir); err == nil {
		t.Error("missing archive accepted")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "linttree.tar.gz"))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	altered := filepath.Join(dir, "altered.tar.gz")
	if err := os.WriteFile(altered, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pinnedTree(altered, dir); err == nil {
		t.Error("altered archive accepted")
	}
}

func TestSummarizeIgnoresOneStalledChunk(t *testing.T) {
	n := 20 * windows
	lat := make([]float64, n)
	ends := make([]time.Duration, n)
	for i := range ends {
		lat[i] = 1
		ends[i] = time.Duration(i+1) * time.Millisecond
	}
	// The third chunk stalls: its ops take 50 ms each.
	for i := 40; i < n; i++ {
		ends[i] += time.Duration(min(i-39, 20)) * 49 * time.Millisecond
		if i < 60 {
			lat[i] = 50
		}
	}
	for _, windowed := range []bool{true, false} {
		ph := summarize(lat, ends, windowed)
		if math.Abs(ph.rate-1000) > 1e-6 || ph.p50 != 1 {
			t.Errorf("windowed=%v: rate %v, p50 %v; want 1000 and 1", windowed, ph.rate, ph.p50)
		}
	}
	if ph := summarize(lat, ends, true); ph.p99 != 1 {
		t.Errorf("windowed p99 = %v, want 1 (one stalled chunk of %d)", ph.p99, windows)
	}
	if ph := summarize(lat, ends, false); ph.p99 != 50 {
		t.Errorf("whole-run p99 = %v, want 50", ph.p99)
	}
}
