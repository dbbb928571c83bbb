// Package memofix exercises memokeycheck: an AppendKey method that
// skips a receiver field fires, a chained input's upstream-key field
// included; exhaustive writers, nested selectors, loops over map
// fields, pointer receivers, whole-receiver escapes, and non-KeyWriter
// AppendKey signatures do not.
package memofix

import (
	"time"

	"burstlink/internal/memo"
)

type res struct {
	W, H int
}

func (r res) AppendKey(w *memo.KeyWriter) {
	w.Int("w", int64(r.W))
	w.Int("h", int64(r.H))
}

// forgetful omits Quality from the key: two inputs differing only in
// Quality collide and the cache serves a stale segment.
type forgetful struct {
	Frames  int
	Quality int
}

func (f forgetful) AppendKey(w *memo.KeyWriter) { // want "AppendKey on forgetful never writes Quality"
	w.Int("frames", int64(f.Frames))
}

// blankRecv cannot read any field through its blank receiver.
type blankRecv struct {
	A, B int
}

func (blankRecv) AppendKey(w *memo.KeyWriter) { // want "AppendKey on blankRecv never writes A, B"
	w.Int("a", 0)
	w.Int("b", 0)
}

// exhaustive covers every shape of field read that counts as written:
// direct, nested selector, range over a map field, and a duration.
type exhaustive struct {
	Name  string
	Res   res
	Dur   time.Duration
	Comp  map[int]float64
	Burst bool
}

func (e exhaustive) AppendKey(w *memo.KeyWriter) {
	w.String("name", e.Name)
	w.Sub("res", e.Res)
	w.Duration("dur", e.Dur)
	w.Int("comps", int64(len(e.Comp)))
	for k, v := range e.Comp {
		w.Int("k", int64(k))
		w.Float("v", v)
	}
	w.Bool("burst", e.Burst)
}

// chainedForgetful is a chained segment input: Upstream holds the key
// of the segment it consumes, standing in for that segment's whole
// input. Leaving it unwritten keys every upstream value alike.
type chainedForgetful struct {
	Upstream string
	N        int
}

func (c chainedForgetful) AppendKey(w *memo.KeyWriter) { // want "AppendKey on chainedForgetful never writes Upstream"
	w.Int("n", int64(c.N))
}

// chained is its twin that writes the upstream key: clean.
type chained struct {
	Upstream string
	N        int
}

func (c chained) AppendKey(w *memo.KeyWriter) {
	w.String("upstream", c.Upstream)
	w.Int("n", int64(c.N))
}

// ptrRecv checks the pointer-receiver path.
type ptrRecv struct {
	X, Y int
}

func (p *ptrRecv) AppendKey(w *memo.KeyWriter) { // want "AppendKey on \\*ptrRecv never writes Y"
	w.Int("x", int64(p.X))
}

// escapes hands the whole receiver to a helper: exhaustiveness is the
// helper's problem, so no finding here.
type escapes struct {
	A, B int
}

func writeBoth(w *memo.KeyWriter, e escapes) {
	w.Int("a", int64(e.A))
	w.Int("b", int64(e.B))
}

func (e escapes) AppendKey(w *memo.KeyWriter) {
	writeBoth(w, e)
}

// suppressed demonstrates the documented escape hatch for a field that
// provably cannot affect the segment output.
type suppressed struct {
	Used   int
	Unused int
}

//lint:ignore memokeycheck Unused is display-only and never reaches the segment computation
func (s suppressed) AppendKey(w *memo.KeyWriter) {
	w.Int("used", int64(s.Used))
}

// notAKeyWriter has the right name but the wrong signature; out of
// scope.
type notAKeyWriter struct {
	A, B int
}

func (n notAKeyWriter) AppendKey(buf []byte) []byte {
	return append(buf, byte(n.A))
}
