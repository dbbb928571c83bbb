package power

import (
	"sort"
	"time"

	"burstlink/internal/memo"
	"burstlink/internal/soc"
	"burstlink/internal/trace"
	"burstlink/internal/units"
)

// This file holds the two power segments of the delta-simulation core
// (DESIGN.md §4.9). A session timeline is one period repeated
// frames times, so evaluating it phase by phase does frames×k identical
// PhasePower compositions over a frames×k-phase slice that exists only
// to be folded. PeriodEval precomputes everything the fold needs from
// one period — per-phase energies, the period duration, and the
// state-entry counts of a first and a subsequent repetition — and
// ExtendPeriod replays the fold over the precomputed energies in the
// exact order Evaluate(tl.Repeat(n)) would have summed them. The result
// is bit-identical to the full expansion (repeat_test.go pins ==) with
// no timeline materialization and no per-phase model composition.
// PeriodEval is the power-period segment: it depends on (timeline, load,
// model) but not on the repetition count, so every sweep cell that
// varies only seconds or bitrate reuses it. The fold itself is still
// O(n·k), so it is memoized too, as the power-extend segment keyed on
// (period key, n): a cell that repeats a cached length does no fold.

// PeriodEval is the precomputed per-period power evaluation: the
// memoized output of the power-integration segment. Values are
// immutable once built (the segment cache aliases them across
// concurrent sweep cells).
type PeriodEval struct {
	// PhaseEnergy is each phase's energy under the load, in timeline
	// order — the exact terms Evaluate would fold.
	PhaseEnergy []units.Energy
	// Period is the timeline's total duration.
	Period time.Duration
	// FirstEntries counts state entries of the first repetition (no
	// predecessor); RestEntries counts entries of every subsequent
	// repetition, whose first phase follows the period's last phase.
	// Entries of n repetitions = FirstEntries + (n-1)·RestEntries.
	FirstEntries, RestEntries map[soc.PackageCState]int
}

// periodKey is the canonical input of the power-period segment. The
// timeline and the model enter by key, not content: Timeline is the key
// of the segment that produced the timeline (session.Engine's timeline
// segment) or, for a caller with no upstream segment, the timeline's
// content key — one key form either way; Model is the model's
// Fingerprint.
type periodKey struct {
	Timeline string
	Load     Load
	Model    string
}

// AppendKey renders the segment input into its canonical key.
func (k periodKey) AppendKey(w *memo.KeyWriter) {
	w.String("timeline", k.Timeline)
	w.Sub("load", k.Load)
	w.String("model", k.Model)
}

// extendKey is the canonical input of the power-extend segment: the key
// of the period evaluation it folds and the repetition count.
type extendKey struct {
	Period string
	N      int
}

// AppendKey renders the segment input into its canonical key.
func (k extendKey) AppendKey(w *memo.KeyWriter) {
	w.String("period", k.Period)
	w.Int("n", int64(k.N))
}

// PeriodKey is the power-period segment key of the timeline keyed
// timelineKey, under the load, priced by the model whose Fingerprint is
// modelKey.
func PeriodKey(timelineKey string, load Load, modelKey string) string {
	return memo.KeyOf("power-period", periodKey{Timeline: timelineKey, Load: load, Model: modelKey})
}

// ExtendKey is the power-extend segment key of the period evaluation
// keyed periodKey folded over n repetitions.
func ExtendKey(periodKey string, n int) string {
	return memo.KeyOf("power-extend", extendKey{Period: periodKey, N: n})
}

// Fingerprint is the model's canonical key, the form every power
// segment key embeds. It walks and sorts every map of the model, so a
// caller that keys many segments under one model computes it once.
func (m Model) Fingerprint() string { return memo.KeyOf("model", m) }

// AppendKey renders the load into a canonical segment key.
func (l Load) AppendKey(w *memo.KeyWriter) {
	w.Float("demand", l.Demand)
	w.Float("panel", l.PanelRatio)
}

// AppendKey renders the calibrated model into a canonical segment key.
// Map-typed fields are written in sorted key order so equal models hash
// identically regardless of map internals.
func (m Model) AppendKey(w *memo.KeyWriter) {
	comps := make([]soc.Component, 0, len(m.Comp))
	for c := range m.Comp {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	w.Int("comps", int64(len(comps)))
	for _, c := range comps {
		w.Int("comp", int64(c))
		states := make([]soc.PackageCState, 0, len(m.Comp[c]))
		for st := range m.Comp[c] {
			states = append(states, st)
		}
		sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
		for _, st := range states {
			w.Int("state", int64(st))
			w.Float("power", float64(m.Comp[c][st]))
		}
	}
	w.Sub("dram", m.DRAM)
	w.Float("burstextra", float64(m.BurstExtra))
	w.Float("gpuextra", float64(m.GPUExtra))
	w.Float("dvfsexp", m.DVFSExp)
	w.Float("panelexp", m.PanelExp)
	w.Float("transit", float64(m.TransitPower))
	lats := make([]soc.PackageCState, 0, len(m.Latencies))
	for st := range m.Latencies {
		lats = append(lats, st)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	w.Int("lats", int64(len(lats)))
	for _, st := range lats {
		w.Int("latstate", int64(st))
		w.Duration("enter", m.Latencies[st].Enter)
		w.Duration("exit", m.Latencies[st].Exit)
	}
}

// EvaluatePeriod precomputes the repeated-evaluation invariants of one
// period timeline under the given load.
func (m Model) EvaluatePeriod(tl trace.Timeline, load Load) PeriodEval {
	pe := PeriodEval{
		PhaseEnergy:  make([]units.Energy, len(tl.Phases)),
		Period:       tl.Total(),
		FirstEntries: make(map[soc.PackageCState]int),
		RestEntries:  make(map[soc.PackageCState]int),
	}
	for i, ph := range tl.Phases {
		pe.PhaseEnergy[i] = units.EnergyOver(m.PhasePower(ph, load), ph.Duration)
	}
	countEntries(pe.FirstEntries, tl.Phases, soc.PackageCState(-1))
	if len(tl.Phases) > 0 {
		countEntries(pe.RestEntries, tl.Phases, tl.Phases[len(tl.Phases)-1].State)
	}
	return pe
}

// countEntries accumulates state-entry counts of one walk over phases
// starting from the given predecessor state.
func countEntries(out map[soc.PackageCState]int, phases []trace.Phase, prev soc.PackageCState) {
	for _, p := range phases {
		if p.State != prev {
			out[p.State]++
			prev = p.State
		}
	}
}

// ExtendPeriod folds a precomputed period evaluation over n repetitions,
// bit-identical to Evaluate(tl.Repeat(n), load): the energy fold visits
// the per-phase terms in the same order and the transition charge uses
// the exact entry counts of the repeated timeline.
func (m Model) ExtendPeriod(pe PeriodEval, n int) Result {
	if n < 0 {
		n = 0
	}
	var energy units.Energy
	for r := 0; r < n; r++ {
		for _, e := range pe.PhaseEnergy {
			energy += e
		}
	}
	entries := make(map[soc.PackageCState]int, len(pe.FirstEntries))
	if n > 0 {
		for st, c := range pe.FirstEntries {
			entries[st] += c
		}
		for st, c := range pe.RestEntries {
			entries[st] += (n - 1) * c
		}
	}
	transit := m.transitionEnergyOf(entries)
	energy += transit
	total := pe.Period * time.Duration(n)
	return Result{
		Average:     units.AveragePower(energy, total),
		Energy:      energy,
		Transitions: transit,
		Duration:    total,
	}
}

// EvaluateRepeated evaluates a period timeline repeated n times —
// bit-identical to Evaluate(tl.Repeat(n), load) without materializing
// the n·k-phase slice or recomposing the model per phase.
func (m Model) EvaluateRepeated(tl trace.Timeline, n int, load Load) Result {
	return m.ExtendPeriod(m.EvaluatePeriod(tl, load), n)
}

// EvaluatePeriodMemo is EvaluatePeriod through the segment cache: the
// evaluation is keyed by (timeline content, load, model), so any two
// callers that price the same period share one computation. A nil or
// disabled cache computes directly.
func (m Model) EvaluatePeriodMemo(c *memo.Cache, tl trace.Timeline, load Load) PeriodEval {
	var key string
	if c.Enabled() {
		key = PeriodKey(memo.KeyOf("timeline-content", tl), load, m.Fingerprint())
	}
	return m.periodMemo(c, key, tl, load)
}

// periodMemo runs the power-period segment under its key. The compute
// cannot fail, so the only error is memo.ErrComputePanicked on a caller
// that coalesced onto a panicking evaluation; it panics too rather than
// return a zero result.
func (m Model) periodMemo(c *memo.Cache, key string, tl trace.Timeline, load Load) PeriodEval {
	pe, err := memo.DoKey(c, key, func() (PeriodEval, error) { return m.EvaluatePeriod(tl, load), nil })
	if err != nil {
		panic(err)
	}
	return pe
}

// EvaluateMemo is Evaluate through the segment cache — the one-period
// form the experiment drivers use. Bit-identical to Evaluate(tl, load).
func (m Model) EvaluateMemo(c *memo.Cache, tl trace.Timeline, load Load) Result {
	return m.ExtendPeriod(m.EvaluatePeriodMemo(c, tl, load), 1)
}

// ExtendMemo is ExtendPeriod(EvaluatePeriod(tl, load), n) through two
// chained segments: power-period, keyed by (timelineKey, load,
// modelKey), and power-extend, keyed by (period key, n). timelineKey is
// the key tl was cached under and modelKey is m.Fingerprint(); both
// are ignored when c is nil or disabled. A power-extend hit costs two
// small key hashes and one lookup, whatever n is: no O(n) fold and no
// period evaluation. On a miss the period evaluation is looked up in
// turn, so a change of n alone refolds a cached period. Bit-identical
// to Evaluate(tl.Repeat(n), load).
func (m Model) ExtendMemo(c *memo.Cache, modelKey, timelineKey string, tl trace.Timeline, load Load, n int) Result {
	var pk, xk string
	if c.Enabled() {
		pk = PeriodKey(timelineKey, load, modelKey)
		xk = ExtendKey(pk, n)
	}
	res, err := memo.DoKey(c, xk, func() (Result, error) {
		return m.ExtendPeriod(m.periodMemo(c, pk, tl, load), n), nil
	})
	if err != nil {
		panic(err)
	}
	return res
}
