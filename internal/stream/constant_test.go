package stream

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"burstlink/internal/units"
)

// sameDelivery reports whether two DeliveryTime answers agree: the same
// arrival time, or the same error text.
func sameDelivery(t1 time.Duration, e1 error, t2 time.Duration, e2 error) bool {
	if (e1 == nil) != (e2 == nil) {
		return false
	}
	if e1 != nil {
		return e1.Error() == e2.Error()
	}
	return t1 == t2
}

// quickRate maps a random draw to a delivery rate: zero in one case of
// eight, a rate too low for most horizons in another, otherwise up to
// 200 Mbps.
func quickRate(r uint32) units.DataRate {
	switch r % 8 {
	case 0:
		return 0
	case 1:
		return units.DataRate(r%1000) * units.Kbps / 100
	}
	return units.DataRate(r%200_000) * units.Kbps
}

// TestConstantSourceMatchesIntegrator is the equivalence oracle of the
// constant-rate source: over random rates (zero and too-slow ones
// included), frame sizes, starts and horizons, its DeliveryTime equals
// the 1 ms integrator over ConstantBandwidth of the same rate, answer
// for answer and error for error, including at horizons a nanosecond
// either side of where the error starts. The source is reused across
// the calls of each case, so a memoized step count must also hold for a
// repeated size, a new start and a tighter horizon; a fresh source
// answers each call too.
func TestConstantSourceMatchesIntegrator(t *testing.T) {
	f := func(rate uint32, size uint32, start uint32, horizon int32) bool {
		r := quickRate(rate)
		sz := units.ByteSize(size % (2 << 20))
		st := time.Duration(start%10_000) * time.Millisecond
		hz := time.Duration(horizon%2_000_000) * time.Microsecond
		ref := NewSource(ConstantBandwidth(r))
		fast := NewConstantSource(r)
		type call struct {
			size           units.ByteSize
			start, horizon time.Duration
		}
		calls := []call{{sz, st, hz}, {sz, st + time.Second, hz}, {sz, st, hz / 2}}
		// Where the frame arrives, the horizon error sits one step
		// before the arrival: probe both sides of it, to the
		// nanosecond.
		if end, err := ref.DeliveryTime(st, sz, hz); err == nil && end > st {
			last := end - st - ref.step
			calls = append(calls, call{sz, st, last - 1}, call{sz, st, last}, call{sz, 0, last + 1})
		}
		for _, c := range calls {
			t1, e1 := ref.DeliveryTime(c.start, c.size, c.horizon)
			// A fresh source counts the steps under this horizon; the
			// reused one answers from the count it memoized.
			for _, src := range []*Source{NewConstantSource(r), fast} {
				t2, e2 := src.DeliveryTime(c.start, c.size, c.horizon)
				if !sameDelivery(t1, e1, t2, e2) {
					t.Logf("rate %v size %v start %v horizon %v: integrator (%v, %v), constant (%v, %v)",
						r, c.size, c.start, c.horizon, t1, e1, t2, e2)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestConstantSourceStreamingMatches: SimulateStreaming over the
// constant-rate source returns the integrator's Stats, or its error,
// for random rates, frame sizes, lengths, frame rates and prebuffers.
func TestConstantSourceStreamingMatches(t *testing.T) {
	f := func(rate uint32, size uint32, frames, fps, prebuf uint8) bool {
		r := quickRate(rate)
		sz := units.ByteSize(size % (512 << 10))
		n := int(frames%120) + 1
		hz := units.FPS(fps%97) + 24
		pb := int(prebuf % 64)
		run := func(src *Source) (Stats, error) {
			return SimulateStreaming(src, NewJitterBuffer(4*units.MB), sz, n, hz, pb)
		}
		s1, e1 := run(NewSource(ConstantBandwidth(r)))
		s2, e2 := run(NewConstantSource(r))
		if !sameDelivery(0, e1, 0, e2) || s1 != s2 {
			t.Logf("rate %v size %v frames %d fps %d prebuf %d: integrator (%+v, %v), constant (%+v, %v)",
				r, sz, n, hz, pb, s1, e1, s2, e2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConstantSourceZeroRateFailsAtOnce: a source that delivers nothing
// reports the horizon error without stepping to the horizon, however
// far away it is (the integrator would step for 292 years here).
func TestConstantSourceZeroRateFailsAtOnce(t *testing.T) {
	for _, r := range []units.DataRate{0, -units.Mbps} {
		_, err := NewConstantSource(r).DeliveryTime(0, units.KB, math.MaxInt64)
		if err == nil {
			t.Fatalf("rate %v delivered a frame", r)
		}
	}
	if end, err := NewConstantSource(0).DeliveryTime(time.Second, 0, 0); err != nil || end != time.Second {
		t.Fatalf("empty frame at rate 0: (%v, %v), want (1s, nil)", end, err)
	}
}
