package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/cache"
	"burstlink/internal/core"
	"burstlink/internal/fleet"
	"burstlink/internal/lint"
	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/server"
	"burstlink/internal/session"
	"burstlink/internal/sink"
	"burstlink/internal/trace"
)

// The traced run times each layer from outside: it calls the layer's
// public function on the same generated inputs the workload sends and
// records a span around the call. Spans of one operation share its op
// id and hang under the operation's root span; they are kept in memory
// and written to .bench_build/spans/ when the run ends.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// do records a span around f.
func (t *tracer) do(name string, op, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// us returns the durations of the spans named name, in microseconds,
// keyed by op id.
func (t *tracer) us(name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// medianUS is the median duration of the spans named name, in µs.
func (t *tracer) medianUS(name string) float64 {
	return median(mapValues(t.us(name)))
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// overheadChunk is how many serve ops run untraced, then traced, in turn
// when the tracing overhead is measured.
const overheadChunk = 250

// recon is one family's layer-sum reconciliation: per operation, the
// end-to-end time the named layers do not account for, and how much
// slower the traced operation ran than the same operation untraced.
type recon struct {
	unattributedUS []float64
	overheadPct    float64
}

// runTraced measures every layer. The serve layers replay the
// workload's own requests on serve-hot and serve-sweep and the
// serve-sweep walk otherwise; the fleet and lint layers always run on
// their workload's inputs. The reconciliation metrics come from the
// workload's own family.
func runTraced(o options, w workload) (result, map[string]any, error) {
	tr := newTracer()
	m := make(map[string]metric)
	var t tally
	serve, err := traceServe(o, tr, w.name == "serve-hot", m, &t)
	if err != nil {
		return result{}, nil, fmt.Errorf("serve layers: %w", err)
	}
	fl, err := traceFleet(o, tr, m, &t)
	if err != nil {
		return result{}, nil, fmt.Errorf("fleet layers: %w", err)
	}
	li, err := traceLint(o, tr, m, &t)
	if err != nil {
		return result{}, nil, fmt.Errorf("lint layers: %w", err)
	}
	own := map[string]recon{"serve-hot": serve, "serve-sweep": serve, "fleet-batch": fl, "lint-module": li}[w.name]
	m["unattributed_us"] = metric{median(own.unattributedUS), "us"}
	m["tracing_overhead_pct"] = metric{own.overheadPct, "%"}

	path := filepath.Join(o.build, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, nil, err
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d traced operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	serveInputs := "serve-sweep"
	if w.name == "serve-hot" {
		serveInputs = "serve-hot"
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m},
		map[string]any{"spans": len(tr.spans), "spans_file": path, "serve_inputs": serveInputs,
			"serve_trace_ops": o.sizes.serveTraceOps, "serve_count_ops": o.sizes.countOps}, nil
}

// serveOps is the request sequence the twin server sees (the traced
// replay is its prefix), plus the hot set to warm first (empty for the
// walk, which starts cold).
func serveOps(o options, hot bool) (ops, warm []api.SessionRequest) {
	n := max(o.sizes.countOps, o.sizes.serveTraceOps)
	ops = make([]api.SessionRequest, n)
	if hot {
		warm = hotSet(o.seed, o.sizes.hotSet)
		order := hotOrder(o.seed, len(warm))
		for i := range ops {
			ops[i] = warm[order[i%len(order)]]
		}
		return ops, warm
	}
	wk := newWalk(o.seed)
	for i := range ops {
		ops[i] = wk.next()
	}
	return ops, nil
}

// scenarioKey mirrors the engine's period-timeline segment input:
// scheme, scenario and platform.
type scenarioKey struct {
	scheme   session.Scheme
	scenario pipeline.Scenario
	platform pipeline.Platform
}

func (k scenarioKey) AppendKey(w *memo.KeyWriter) {
	w.Int("scheme", int64(k.scheme))
	w.Sub("scenario", k.scenario)
	w.Sub("platform", k.platform)
}

// periodTimeline schedules one period of the scheme, as the engine's
// timeline segment does.
func periodTimeline(sch session.Scheme, p pipeline.Platform, s pipeline.Scenario) (trace.Timeline, error) {
	switch sch {
	case session.BurstOnly:
		return core.BurstOnly(p, s)
	case session.BypassOnly:
		return core.BypassOnly(p, s)
	case session.BurstLink:
		return core.BurstLink(p, s)
	default:
		return pipeline.Conventional(p, s)
	}
}

func sessionResponse(res session.Result) api.SessionResponse {
	return api.SessionResponse{
		Scheme:      res.Scheme.String(),
		Frames:      res.Frames,
		Stalls:      res.Stalls,
		AvgPower:    res.AvgPower,
		Energy:      res.Energy,
		BatteryLife: res.BatteryLife,
		DRAMRead:    res.DRAMRead,
		DRAMWrite:   res.DRAMWrite,
		BufferPeak:  res.Buffer.Peak,
	}
}

// handlerOn serves one session body on h through a recorder.
func handlerOn(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/session", bytes.NewReader(body)))
	return rec
}

// traceServe replays the serve requests in three passes over the same
// ops, so the probes do not disturb the round trips: first the loopback
// round trips on server A, back to back as in the timed run (each op's
// root span); then the same bodies on a twin server's handler (the twin
// sees the same sequence, so its cache state matches A's); then decode,
// cache key, LRU lookup, warm engine run and marshal, each alone, and
// every coldEvery ops the cold engine, the three segment keys and the
// period fold.
func traceServe(o options, tr *tracer, hot bool, m map[string]metric, t *tally) (recon, error) {
	all, warm := serveOps(o, hot)
	allBodies, err := marshalAll(all)
	if err != nil {
		return recon{}, err
	}
	ops, bodies := all[:o.sizes.serveTraceOps], allBodies[:o.sizes.serveTraceOps]
	warmBodies, err := marshalAll(warm)
	if err != nil {
		return recon{}, err
	}
	plat, model := pipeline.DefaultPlatform(), power.Default()
	ctx := context.Background()

	// The round trips alternate, in chunks of overheadChunk ops, between
	// an untraced server and the traced server A. Both are warmed alike
	// and see the same requests in the same order, so their cache states
	// match, and host drift falls on both sides of the overhead alike.
	base, err := startBlkd()
	if err != nil {
		return recon{}, err
	}
	defer func() { _ = base.close() }()
	a, err := startBlkd()
	if err != nil {
		return recon{}, err
	}
	defer func() { _ = a.close() }()
	for _, b := range warmBodies {
		if _, err := base.post("/v1/session", b); err != nil {
			return recon{}, err
		}
		if _, err := a.post("/v1/session", b); err != nil {
			return recon{}, err
		}
	}
	baseClient := api.NewClient(base.base).WithHTTPClient(base.hc).WithRetry(0, 0, nil)
	client := api.NewClient(a.base).WithHTTPClient(a.hc).WithRetry(0, 0, nil)
	roots := make([]int, len(ops))
	var untraced time.Duration
	for lo := 0; lo < len(ops); lo += overheadChunk {
		hi := min(lo+overheadChunk, len(ops))
		t0 := time.Now()
		for _, req := range ops[lo:hi] {
			if _, _, err := baseClient.Session(ctx, req); err != nil {
				return recon{}, err
			}
		}
		untraced += time.Since(t0)
		for i := lo; i < hi; i++ {
			req := ops[i]
			roots[i] = tr.begin("op", i, 0)
			var resp api.SessionResponse
			var err error
			tr.do("http.roundtrip", i, roots[i], func() { resp, _, err = client.Session(ctx, req) })
			tr.end(roots[i])
			if err == nil && (resp.Scheme != req.Scheme || resp.Frames != req.Seconds*int(req.FPS)) {
				err = fmt.Errorf("session response %+v does not answer %+v", resp, req)
			}
			t.note(err)
		}
	}
	untracedUS := float64(untraced) / 1e3 / float64(len(ops))

	twin := server.New(server.Config{NodeID: "twin"}).Handler()
	for _, b := range warmBodies {
		handlerOn(twin, b)
	}
	twinBodies := make([][]byte, len(ops))
	missOps := make(map[int]bool)
	for i, body := range bodies {
		var rec *httptest.ResponseRecorder
		tr.do("server.handler", i, roots[i], func() { rec = handlerOn(twin, body) })
		if rec.Code != http.StatusOK {
			t.note(fmt.Errorf("twin handler: status %d", rec.Code))
		}
		twinBodies[i] = rec.Body.Bytes()
		missOps[i] = rec.Header().Get(api.CacheHeader) != string(api.CacheHit)
	}

	lru := cache.NewLRU(resultEntries)
	warmEng := session.Engine{P: plat, M: model, Memo: memo.NewCache(segmentEntries)}
	coldEng := session.Engine{P: plat, M: model}
	for k, req := range warm {
		cfg, err := req.ToConfig()
		if err != nil {
			return recon{}, err
		}
		res, err := warmEng.Run(cfg)
		if err != nil {
			return recon{}, err
		}
		out, err := json.Marshal(sessionResponse(res))
		if err != nil {
			return recon{}, err
		}
		lru.Put(warm[k].CacheKey(), out)
	}
	for i, body := range bodies {
		root := roots[i]
		var dreq api.SessionRequest
		var err error
		tr.do("api.decode", i, root, func() { dreq, err = api.DecodeSessionRequest(bytes.NewReader(body)) })
		if err != nil {
			t.note(err)
			continue
		}
		var key string
		tr.do("api.cache_key", i, root, func() { key = dreq.CacheKey() })
		var hit bool
		tr.do("cache.get", i, root, func() { _, hit = lru.Get(key) })
		cfg, err := dreq.ToConfig()
		if err != nil {
			t.note(err)
			continue
		}
		var res session.Result
		tr.do("session.engine_warm", i, root, func() { res, err = warmEng.Run(cfg) })
		if err != nil {
			t.note(err)
			continue
		}
		var out []byte
		tr.do("api.marshal", i, root, func() { out, err = json.Marshal(sessionResponse(res)) })
		if err == nil && !bytes.Equal(out, twinBodies[i]) {
			err = fmt.Errorf("in-process body %s differs from the handler's %s", out, twinBodies[i])
		}
		t.note(err)
		if !hit {
			lru.Put(key, out)
		}

		if i%o.sizes.coldEvery == 0 {
			tr.do("session.engine_cold", i, root, func() { _, err = coldEng.Run(cfg) })
			t.note(err)
			tl, err := periodTimeline(cfg.Scheme, plat, cfg.Scenario)
			if err != nil {
				t.note(err)
				continue
			}
			load := power.LoadOf(plat, cfg.Scenario)
			tr.do("memo.keyof_timeline", i, root, func() { memo.KeyOf("timeline", tl) })
			tr.do("memo.keyof_scenario", i, root, func() {
				memo.KeyOf("scenario", scenarioKey{cfg.Scheme, cfg.Scenario, plat})
			})
			tr.do("memo.keyof_model", i, root, func() { memo.KeyOf("model", model) })
			var pe power.PeriodEval
			tr.do("power.evaluate_period", i, root, func() { pe = model.EvaluatePeriod(tl, load) })
			tr.do("power.extend_period", i, root, func() { model.ExtendPeriod(pe, res.Frames) })
		}
	}

	// The twin goes on to the end of the sequence, long enough for the
	// segment cache to evict, and its /v1/stats gives the counts.
	for _, b := range allBodies[len(bodies):] {
		if rec := handlerOn(twin, b); rec.Code != http.StatusOK {
			t.note(fmt.Errorf("twin handler: status %d", rec.Code))
		}
	}
	st, err := twinStats(twin)
	if err != nil {
		return recon{}, err
	}
	handlerAllocs, engineAllocs, err := serveAllocs(ops[:min(len(ops), o.sizes.allocOps)], warm, bodies, warmBodies)
	if err != nil {
		return recon{}, err
	}

	rt, hd := tr.us("http.roundtrip"), tr.us("server.handler")
	transport := make([]float64, 0, len(rt))
	var tracedSum float64
	for i, v := range rt {
		transport = append(transport, v-hd[i])
		tracedSum += v
	}
	var unattributed []float64
	dec, key, get := tr.us("api.decode"), tr.us("api.cache_key"), tr.us("cache.get")
	eng, mar := tr.us("session.engine_warm"), tr.us("api.marshal")
	for i, h := range hd {
		attributed := dec[i] + key[i] + get[i]
		if missOps[i] {
			attributed += eng[i] + mar[i]
		}
		unattributed = append(unattributed, h-attributed)
	}

	for _, name := range []string{"http.roundtrip", "server.handler", "api.decode", "api.cache_key", "cache.get",
		"api.marshal", "session.engine_warm", "session.engine_cold", "memo.keyof_timeline", "memo.keyof_scenario",
		"memo.keyof_model", "power.evaluate_period", "power.extend_period"} {
		m[name+"_us"] = metric{tr.medianUS(name), "us"}
	}
	m["http.transport_us"] = metric{median(transport), "us"}
	m["server.handler_allocs"] = metric{handlerAllocs, "count"}
	m["session.engine_warm_allocs"] = metric{engineAllocs, "count"}
	m["server.result_hit_ratio"] = metric{st.HitRatio, "ratio"}
	m["memo.segment_hit_ratio"] = metric{st.SegmentHitRatio, "ratio"}
	m["memo.segment_misses"] = metric{float64(st.SegmentMisses), "count"}
	m["memo.segment_evictions"] = metric{float64(st.SegmentEvictions), "count"}

	tracedUS := tracedSum / float64(len(rt))
	return recon{unattributedUS: unattributed, overheadPct: (tracedUS/untracedUS - 1) * 100}, nil
}

func twinStats(h http.Handler) (api.Stats, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st api.Stats
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// serveAllocs is the median allocation count of one twin-handler call
// and one warm engine run over ops, on fresh instances warmed like the
// traced ones.
func serveAllocs(ops, warm []api.SessionRequest, bodies, warmBodies [][]byte) (handler, engine float64, err error) {
	twin := server.New(server.Config{NodeID: "twin"}).Handler()
	eng := session.Engine{P: pipeline.DefaultPlatform(), M: power.Default(), Memo: memo.NewCache(segmentEntries)}
	cfgs := func(reqs []api.SessionRequest) ([]session.Config, error) {
		out := make([]session.Config, len(reqs))
		for i, r := range reqs {
			if out[i], err = r.ToConfig(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	warmCfgs, err := cfgs(warm)
	if err != nil {
		return 0, 0, err
	}
	opCfgs, err := cfgs(ops)
	if err != nil {
		return 0, 0, err
	}
	for k, b := range warmBodies {
		handlerOn(twin, b)
		if _, err := eng.Run(warmCfgs[k]); err != nil {
			return 0, 0, err
		}
	}
	var before, after runtime.MemStats
	hs := make([]float64, len(ops))
	es := make([]float64, len(ops))
	for i := range ops {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/session", bytes.NewReader(bodies[i]))
		runtime.ReadMemStats(&before)
		twin.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		hs[i] = float64(after.Mallocs - before.Mallocs)

		runtime.ReadMemStats(&before)
		_, err := eng.Run(opCfgs[i])
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		es[i] = float64(after.Mallocs - before.Mallocs)
	}
	return median(hs), median(es), nil
}

// traceFleet posts fleet requests over loopback and runs the same
// population in process on a warm segment cache, timing sampling and
// device keys over every device.
func traceFleet(o options, tr *tracer, m map[string]metric, t *tally) (recon, error) {
	seeds := newFleetSeeds(o.seed)
	size, n := o.sizes.fleetDevices, o.sizes.fleetTraceOps
	ctx := context.Background()
	a, err := startBlkd()
	if err != nil {
		return recon{}, err
	}
	defer func() { _ = a.close() }()
	client := api.NewClient(a.base).WithHTTPClient(a.hc).WithRetry(0, 0, nil)
	segs := memo.NewCache(segmentEntries)
	if _, _, err := client.Fleet(ctx, api.FleetRequest{Size: size, Seed: seeds.warm()}); err != nil {
		return recon{}, err
	}
	if _, _, err := inProcessFleet(segs, size, seeds.warm()); err != nil {
		return recon{}, err
	}

	// Each traced request follows an untraced one with another seed, so
	// host drift falls on both sides of the overhead alike.
	unique := 0
	var untraced time.Duration
	for j := 0; j < n; j++ {
		t0 := time.Now()
		if _, _, err := client.Fleet(ctx, api.FleetRequest{Size: size, Seed: seeds.request(n + j)}); err != nil {
			return recon{}, err
		}
		untraced += time.Since(t0)
		req := api.FleetRequest{Size: size, Seed: seeds.request(j)}
		root := tr.begin("fleet.op", j, 0)
		var resp api.FleetResponse
		tr.do("fleet.roundtrip", j, root, func() { resp, _, err = client.Fleet(ctx, req) })
		if err != nil {
			t.note(err)
			tr.end(root)
			continue
		}
		nreq := req
		nreq.Normalize()
		pop, err := nreq.ToPopulation()
		if err != nil {
			return recon{}, err
		}
		devs := make([]fleet.Device, pop.Size)
		tr.do("fleet.sample", j, root, func() {
			for d := range devs {
				devs[d] = pop.Device(d)
			}
		})
		keyBytes := 0
		tr.do("fleet.device_key", j, root, func() {
			for _, d := range devs {
				keyBytes += len(d.Key())
			}
		})
		if keyBytes == 0 {
			t.note(fmt.Errorf("fleet seed %d: empty device keys", req.Seed))
		}
		var agg sink.Agg
		var out fleet.Outcome
		tr.do("fleet.run", j, root, func() { out, err = fleet.Run(ctx, pop, &agg, fleet.Options{Memo: segs}) })
		if err == nil {
			err = sameFleet(resp, api.FleetResponse{Devices: out.Devices, Unique: out.Unique,
				Scheme: nreq.Scheme, Metrics: agg.Summaries()})
		}
		t.note(err)
		if j == 0 {
			unique = out.Unique
		}
		tr.end(root)
	}

	rt, run := tr.us("fleet.roundtrip"), tr.us("fleet.run")
	var unattributed []float64
	var tracedSum float64
	for j, v := range rt {
		unattributed = append(unattributed, v-run[j])
		tracedSum += v
	}
	m["fleet.sample_us"] = metric{tr.medianUS("fleet.sample") / float64(size), "us"}
	m["fleet.device_key_us"] = metric{tr.medianUS("fleet.device_key") / float64(size), "us"}
	m["fleet.run_ms"] = metric{tr.medianUS("fleet.run") / 1e3, "ms"}
	m["fleet.unique_configs"] = metric{float64(unique), "count"}
	if len(rt) == 0 {
		return recon{}, fmt.Errorf("no fleet request succeeded")
	}
	untracedUS := float64(untraced) / 1e3 / float64(n)
	return recon{unattributedUS: unattributed, overheadPct: (tracedSum/float64(len(rt))/untracedUS - 1) * 100}, nil
}

// sameFleet compares a served fleet response with the in-process one by
// their encodings.
func sameFleet(got, want api.FleetResponse) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("served fleet aggregate differs from in-process fleet.Run:\n got %.300s\nwant %.300s", g, w)
	}
	return nil
}

// traceLint times full analysis passes over the pinned tree and each
// analyzer run alone.
func traceLint(o options, tr *tracer, m map[string]metric, t *tally) (recon, error) {
	var pkgs []*lint.Package
	var err error
	tr.do("lint.load", 0, 0, func() { pkgs, err = loadTree(o.lintTree) })
	if err != nil {
		return recon{}, err
	}
	all := lint.All()
	want := lint.RunAnalyzers(pkgs, all)
	n := o.sizes.lintTracePass

	// Each traced pass follows an untraced one, so host drift falls on
	// both sides of the overhead alike.
	var untraced time.Duration
	for p := 0; p < n; p++ {
		t0 := time.Now()
		t.note(sameFindings(lint.RunAnalyzers(pkgs, all), want))
		untraced += time.Since(t0)
		root := tr.begin("lint.op", p, 0)
		var got []lint.Finding
		tr.do("lint.analyze", p, root, func() { got = lint.RunAnalyzers(pkgs, all) })
		t.note(sameFindings(got, want))
		for _, a := range all {
			tr.do("lint."+a.Name, p, root, func() { lint.RunAnalyzers(pkgs, []*lint.Analyzer{a}) })
		}
		tr.end(root)
	}

	full := tr.us("lint.analyze")
	per := make([]map[int]float64, len(all))
	for k, a := range all {
		per[k] = tr.us("lint." + a.Name)
		m["lint."+a.Name+"_ms"] = metric{tr.medianUS("lint."+a.Name) / 1e3, "ms"}
	}
	var unattributed []float64
	var tracedSum float64
	for p, v := range full {
		rest := v
		for k := range all {
			rest -= per[k][p]
		}
		unattributed = append(unattributed, rest)
		tracedSum += v
	}
	m["lint.analyze_ms"] = metric{median(mapValues(full)) / 1e3, "ms"}
	m["lint.packages"] = metric{float64(len(pkgs)), "count"}
	untracedUS := float64(untraced) / 1e3 / float64(n)
	return recon{unattributedUS: unattributed, overheadPct: (tracedSum/float64(len(full))/untracedUS - 1) * 100}, nil
}

func mapValues(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
