package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"burstlink/internal/memo"
	"burstlink/internal/par"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/session"
	"burstlink/internal/sink"
	"burstlink/internal/units"
)

// Options tunes a fleet run.
type Options struct {
	// Memo is the shared delta-simulation segment cache; nil (or
	// disabled) recomputes every segment.
	Memo *memo.Cache
	// Scratch forces the legacy full-expansion evaluation in every
	// session — the baseline arm of the fleet bench. Results are
	// bit-identical to the delta path.
	Scratch bool
	// Platform is the reference platform classes scale from; the zero
	// value uses pipeline.DefaultPlatform.
	Platform pipeline.Platform
	// Model is the power model; the zero value uses power.Default.
	Model power.Model
	// Progress, when set, is called as simulation advances with the
	// number of devices whose configurations have finished simulating
	// and the population size. Calls are serialized.
	Progress func(done, total int)
}

// Outcome summarizes a fleet run's shape (the metric aggregates live in
// whatever sink the caller supplied).
type Outcome struct {
	// Devices is the population size; Unique is how many distinct
	// device configurations it deduplicated to before simulation.
	Devices int
	Unique  int
}

// deviceResult is the per-configuration metric set appended to the sink
// once per device sharing the configuration.
type deviceResult struct {
	class     string
	impactPct float64
	savingPct float64
	basePower units.Power
	armPower  units.Power
	baseLifeH float64
	armLifeH  float64
}

// Schema returns the fleet run's column schema. Histogram ranges are
// fixed (not data-derived) so bucket assignment is independent of
// evaluation order: battery impact in [0, 200)% at 1%-wide buckets,
// energy saving in [0, 100)% at 1%.
func Schema() sink.Schema {
	return sink.Schema{
		Name: "fleet",
		Cols: []sink.Column{
			{Name: "class", Kind: sink.String},
			{Name: "impact_pct", Kind: sink.Float, Unit: "pct", HistLo: 0, HistHi: 200, HistBuckets: 200},
			{Name: "saving_pct", Kind: sink.Float, Unit: "pct", HistLo: 0, HistHi: 100, HistBuckets: 100},
			{Name: "base_mw", Kind: sink.Float, Unit: "mw"},
			{Name: "arm_mw", Kind: sink.Float, Unit: "mw"},
			{Name: "base_life_h", Kind: sink.Float, Unit: "h"},
			{Name: "arm_life_h", Kind: sink.Float, Unit: "h"},
		},
	}
}

// row renders the result as a sink row matching Schema.
func (r deviceResult) row() []sink.Value {
	return []sink.Value{
		sink.Str(r.class),
		sink.FloatV(r.impactPct),
		sink.FloatV(r.savingPct),
		sink.FloatV(float64(r.basePower)),
		sink.FloatV(float64(r.armPower)),
		sink.FloatV(r.baseLifeH),
		sink.FloatV(r.armLifeH),
	}
}

// Run simulates the population and streams one row per device into snk,
// in device-index order. The pipeline has three phases:
//
//  1. Sample: Device(i) for every index — pure, cheap — and group by
//     canonical key, preserving first-occurrence order. Identical
//     configurations collapse to one simulation.
//  2. Simulate: the unique configurations fan out on the par pool, each
//     running its day's sessions through session.Engine under the
//     shared segment cache (devices sharing codec/timeline/power
//     segments pay for them once even when their full configurations
//     differ).
//  3. Fold: rows append to the sink in device-index order with each
//     device reusing its configuration's result, so the aggregate is
//     bit-identical regardless of worker count or cache state.
//
// Cancellation is checked per unique configuration; the first error in
// first-occurrence order wins.
func Run(ctx context.Context, pop Population, snk sink.Sink, opts Options) (Outcome, error) {
	if err := pop.Validate(); err != nil {
		return Outcome{}, err
	}
	if opts.Platform.VDPixelRate == 0 {
		opts.Platform = pipeline.DefaultPlatform()
	}
	if opts.Model.Comp == nil {
		opts.Model = power.Default()
	}

	// Phase 1: sample and deduplicate.
	uniques := make([]Device, 0)
	mult := make([]int, 0)
	byKey := make(map[string]int32)
	ids := make([]int32, pop.Size)
	for i := 0; i < pop.Size; i++ {
		d := pop.Device(i)
		key := d.Key()
		id, ok := byKey[key]
		if !ok {
			id = int32(len(uniques))
			byKey[key] = id
			uniques = append(uniques, d)
			mult = append(mult, 0)
		}
		mult[id]++
		ids[i] = id
	}

	// One engine per device class, fingerprinting the class's platform
	// and the model once for all of its devices.
	engines := make(map[string]session.Engine, len(pop.Classes))
	for _, c := range pop.Classes {
		eng := session.NewEngine(c.Platform(opts.Platform), opts.Model, opts.Memo)
		eng.Scratch = opts.Scratch
		engines[c.Name] = eng
	}

	// Phase 2: simulate unique configurations on the par pool. Progress
	// counts devices (multiplicity included), not configurations, so the
	// stream reflects population coverage.
	type simResult struct {
		res deviceResult
		err error
	}
	var done atomic.Int64
	var progressMu sync.Mutex
	results := par.Map(len(uniques), func(u int) simResult {
		if err := ctx.Err(); err != nil {
			return simResult{err: err}
		}
		res, err := pop.runDevice(uniques[u], engines[uniques[u].Class.Name])
		if opts.Progress != nil {
			n := int(done.Add(int64(mult[u])))
			progressMu.Lock()
			opts.Progress(n, pop.Size)
			progressMu.Unlock()
		}
		return simResult{res: res, err: err}
	})
	for u, r := range results {
		if r.err != nil {
			return Outcome{}, fmt.Errorf("fleet: device class %s: %w", uniques[u].Class.Name, r.err)
		}
	}

	// Phase 3: fold rows into the sink in device-index order.
	if err := snk.Begin(Schema()); err != nil {
		return Outcome{}, err
	}
	for _, id := range ids {
		if err := snk.Append(results[id].res.row()); err != nil {
			return Outcome{}, err
		}
	}
	if err := snk.Flush(); err != nil {
		return Outcome{}, err
	}
	return Outcome{Devices: pop.Size, Unique: len(uniques)}, nil
}

// runDevice prices one device configuration's day under the baseline
// and the technique arm: each day segment simulates a representative
// session at the segment's content on the class's panel, and the
// session's average power prices the segment's hours. The fold order is
// the device's canonical segment order, so identical configurations
// produce identical floats.
func (p Population) runDevice(d Device, eng session.Engine) (deviceResult, error) {
	var eBase, eArm, hours float64 // mWh at the day scale
	for _, seg := range d.Segments {
		cfg := session.Config{
			Scenario: scenarioOf(d.Class, seg.Content),
			Seconds:  seg.Content.Seconds,
			Bitrate:  seg.Content.Bitrate,
			Battery:  d.Class.Battery(),
		}
		cfg.Scheme = session.Conventional
		base, err := eng.Run(cfg)
		if err != nil {
			return deviceResult{}, fmt.Errorf("content %s baseline: %w", seg.Content.Name, err)
		}
		cfg.Scheme = p.Scheme
		arm, err := eng.Run(cfg)
		if err != nil {
			return deviceResult{}, fmt.Errorf("content %s %v: %w", seg.Content.Name, p.Scheme, err)
		}
		eBase += float64(base.AvgPower) * seg.Hours
		eArm += float64(arm.AvgPower) * seg.Hours
		hours += seg.Hours
	}
	avgBase := units.Power(eBase / hours)
	avgArm := units.Power(eArm / hours)
	bat := d.Class.Battery()
	lifeBase := bat.Life(avgBase)
	lifeArm := bat.Life(avgArm)
	r := deviceResult{
		class:     d.Class.Name,
		basePower: avgBase,
		armPower:  avgArm,
		baseLifeH: lifeBase.Hours(),
		armLifeH:  lifeArm.Hours(),
	}
	if eBase > 0 {
		r.savingPct = (1 - eArm/eBase) * 100
	}
	if lifeBase > 0 {
		r.impactPct = (lifeArm.Hours()/lifeBase.Hours() - 1) * 100
	}
	return r, nil
}
