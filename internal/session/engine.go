package session

import (
	"fmt"

	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/stream"
	"burstlink/internal/trace"
	"burstlink/internal/units"
	"burstlink/internal/workload"
)

// Engine is the delta-simulation session runner (DESIGN.md §4.9). It
// decomposes Run into four named segments — buffer delivery, period
// timeline, period power evaluation and its extension to the session
// length — each keyed by an explicit canonical input struct and
// memoized through a shared segment cache. Keys are chained: the power
// segments are keyed by the timeline segment's key, not the timeline
// content, so a request whose segments are cached hashes four small
// inputs and does no work that grows with the session length. A sweep
// that moves one knob recomputes only the segments that knob
// invalidates: changing bitrate recomputes the buffer alone, changing
// seconds recomputes the buffer and the extension (which refolds the
// cached period evaluation), changing the scheme reuses the buffer.
// Results are bit-identical to the scratch path — the segments
// recompose the exact float folds Run has always performed — so
// memoization is invisible on the wire (the server's determinism test
// pins this).
//
// Build an Engine with NewEngine, which fingerprints P and M once. P and
// M are read-only from then on: every segment key embeds those
// fingerprints, so a later write to either would be served segments
// computed under the old values. An Engine written as a literal works
// too and fingerprints P and M on every Run.
type Engine struct {
	P pipeline.Platform
	M power.Model
	// Memo is the segment cache; nil (or disabled) recomputes every
	// segment from scratch.
	Memo *memo.Cache
	// Scratch forces the legacy full-expansion evaluation: the period
	// timeline is materialized Repeat(frames) long and folded phase by
	// phase, with no segment cache and no period folding. It exists as
	// the baseline arm of the delta bench and the determinism matrix —
	// its results are bit-identical to the delta path (pinned by
	// engine_test.go and power/repeat_test.go).
	Scratch bool

	// platformKey and modelKey are the fingerprints of P and M, set by
	// NewEngine; empty means "compute per Run".
	platformKey, modelKey string
}

// NewEngine returns an Engine over p and m that memoizes segments in c,
// with the fingerprints of p and m computed once, here.
func NewEngine(p pipeline.Platform, m power.Model, c *memo.Cache) Engine {
	return Engine{P: p, M: m, Memo: c, platformKey: memo.KeyOf("platform", p), modelKey: m.Fingerprint()}
}

// fingerprints returns the keys of P and M for a run under c: the ones
// NewEngine computed, or fresh ones; none when c is disabled.
func (e Engine) fingerprints(c *memo.Cache) (platformKey, modelKey string) {
	if !c.Enabled() {
		return "", ""
	}
	platformKey, modelKey = e.platformKey, e.modelKey
	if platformKey == "" {
		platformKey = memo.KeyOf("platform", e.P)
	}
	if modelKey == "" {
		modelKey = e.M.Fingerprint()
	}
	return platformKey, modelKey
}

// bufferInput is the canonical input of the buffer-delivery segment.
// It exists only for the steady default network (Network == nil in the
// Config): a constant-bandwidth delivery is fully determined by these
// six numbers, while a caller-supplied trace is opaque and bypasses the
// cache.
type bufferInput struct {
	// Bandwidth is the constant delivery rate.
	Bandwidth units.DataRate
	// NetFrame is the on-wire frame size derived from the bitrate.
	NetFrame units.ByteSize
	// Frames is the playback length in frames.
	Frames int
	// FPS is the playback rate.
	FPS int
	// Prebuf is the startup buffer depth in frames.
	Prebuf int
	// Capacity is the jitter-buffer capacity.
	Capacity units.ByteSize
}

// AppendKey renders the segment input into its canonical key.
func (b bufferInput) AppendKey(w *memo.KeyWriter) {
	w.Float("bw", float64(b.Bandwidth))
	w.Uint("netframe", uint64(b.NetFrame))
	w.Int("frames", int64(b.Frames))
	w.Int("fps", int64(b.FPS))
	w.Int("prebuf", int64(b.Prebuf))
	w.Uint("cap", uint64(b.Capacity))
}

// timelineInput is the canonical input of the period-timeline segment:
// the scheme picks the scheduler, the scenario and the platform (by its
// fingerprint) parameterize it.
type timelineInput struct {
	Scheme   Scheme
	Scenario pipeline.Scenario
	Platform string
}

// AppendKey renders the segment input into its canonical key.
func (t timelineInput) AppendKey(w *memo.KeyWriter) {
	w.Int("scheme", int64(t.Scheme))
	w.Sub("scenario", t.Scenario)
	w.String("platform", t.Platform)
}

// jitterCapacity is the fixed jitter-buffer size sessions play through.
const jitterCapacity = 64 * units.MB

// cache returns the segment cache to run under: none in scratch mode.
func (e Engine) cache() *memo.Cache {
	if e.Scratch {
		return nil
	}
	return e.Memo
}

// bufferStats runs the buffer-delivery segment. The steady default
// network goes through the segment cache; an explicit bandwidth trace is
// opaque (not canonically keyable) and is simulated from scratch.
func (e Engine) bufferStats(cfg Config, bitrate units.DataRate, frames int) (stream.Stats, error) {
	s := cfg.Scenario
	prebuf := cfg.PrebufferFrames
	if prebuf == 0 {
		prebuf = int(s.FPS)
	}
	netFrame := units.ByteSize(float64(bitrate) / 8 / float64(s.FPS))
	if cfg.Network != nil {
		buf := stream.NewJitterBuffer(jitterCapacity)
		return stream.SimulateStreaming(stream.NewSource(cfg.Network), buf, netFrame, frames, s.FPS, prebuf)
	}
	bw := units.DataRate(1.5 * float64(bitrate))
	in := bufferInput{
		Bandwidth: bw,
		NetFrame:  netFrame,
		Frames:    frames,
		FPS:       int(s.FPS),
		Prebuf:    prebuf,
		Capacity:  jitterCapacity,
	}
	return memo.Do(e.cache(), "buffer", in, func() (stream.Stats, error) {
		buf := stream.NewJitterBuffer(jitterCapacity)
		return stream.SimulateStreaming(stream.NewConstantSource(bw), buf, netFrame, frames, s.FPS, prebuf)
	})
}

// periodTimeline runs the period-timeline segment: one scheduled period
// of the scheme on the platform, memoized by (scheme, scenario,
// platform). It also returns the segment's key, which keys the power
// segments downstream. Cached timelines are shared read-only across
// cells.
func (e Engine) periodTimeline(c *memo.Cache, platformKey string, sch Scheme, s pipeline.Scenario) (trace.Timeline, string, error) {
	key := memo.Key(c, "timeline", timelineInput{Scheme: sch, Scenario: s, Platform: platformKey})
	tl, err := memo.DoKey(c, key, func() (trace.Timeline, error) { return sch.scheduler()(e.P, s) })
	return tl, key, err
}

// Run plays the session through the segment pipeline. It is the
// memoized equivalent of the package-level Run: same validation, same
// numbers, bit for bit.
func (e Engine) Run(cfg Config) (Result, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Seconds <= 0 {
		return Result{}, fmt.Errorf("session: non-positive duration")
	}
	s := cfg.Scenario
	frames := cfg.Seconds * int(s.FPS)

	// Segment 1: network delivery into the jitter buffer.
	encFrame := e.P.EncodedFrameSize(s.Res)
	if s.VR {
		encFrame = e.P.EncodedFrameSize(s.VRSource)
	}
	bitrate := cfg.Bitrate
	if bitrate <= 0 {
		bitrate = units.DataRate(float64(encFrame.Bits()) * float64(s.FPS))
	}
	bufStats, err := e.bufferStats(cfg, bitrate, frames)
	if err != nil {
		return Result{}, fmt.Errorf("session: network: %w", err)
	}

	// Segment 2: one scheduled period of playback.
	c := e.cache()
	platformKey, modelKey := e.fingerprints(c)
	period, timelineKey, err := e.periodTimeline(c, platformKey, cfg.Scheme, s)
	if err != nil {
		return Result{}, fmt.Errorf("session: %v: %w", cfg.Scheme, err)
	}

	// Segments 3 and 4: power evaluation of the period, then its exact
	// extension to the full session length, both keyed downstream of
	// the timeline's key. Scratch mode expands the whole session
	// timeline and folds it phase by phase instead.
	load := power.LoadOf(e.P, s)
	var res power.Result
	if e.Scratch {
		res = e.M.Evaluate(period.Repeat(frames), load)
	} else {
		res = e.M.ExtendMemo(c, modelKey, timelineKey, period, load, frames)
	}

	bat := cfg.Battery
	if bat.CapacityMilliWattHours == 0 {
		bat = workload.SurfaceProBattery()
	}
	read, write := period.DRAMTraffic()
	return Result{
		Scheme:      cfg.Scheme,
		Frames:      frames,
		Stalls:      bufStats.Underruns,
		Buffer:      bufStats,
		AvgPower:    res.Average,
		Energy:      res.Energy,
		BatteryLife: bat.Life(res.Average),
		DRAMRead:    read * units.ByteSize(int(s.FPS)),
		DRAMWrite:   write * units.ByteSize(int(s.FPS)),
	}, nil
}

// Compare runs the same session under every scheme and returns the
// results in scheme order. Scheme-independent segments (the buffer
// delivery) compute once and hit the cache for the remaining schemes.
func (e Engine) Compare(cfg Config) ([]Result, error) {
	out := make([]Result, 0, 4)
	for _, sch := range Schemes() {
		c := cfg
		c.Scheme = sch
		r, err := e.Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
