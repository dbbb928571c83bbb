// Package stream models the buffering stage of video streaming (§2.4):
// the network IP receives encoded frames at a fluctuating bandwidth and
// the application buffers them in DRAM so decode never starves — "the
// buffering process enables the system to tolerate network bandwidth
// fluctuation and reduce the number of storage accesses".
//
// The model is functional: a Source produces encoded-frame arrivals on
// the virtual clock from a bandwidth trace, and a JitterBuffer absorbs
// them, reporting prebuffer time, occupancy, and underruns. The pipeline
// uses it to size the encoded-stream staging buffer (❶ in Fig 2) and to
// justify the C0-phase prefetch in the bypass schedulers.
package stream

import (
	"fmt"
	"math"
	"time"

	"burstlink/internal/units"
)

// BandwidthTrace returns the instantaneous network bandwidth at time t.
type BandwidthTrace func(t time.Duration) units.DataRate

// ConstantBandwidth returns a flat trace.
func ConstantBandwidth(r units.DataRate) BandwidthTrace {
	return func(time.Duration) units.DataRate { return r }
}

// FluctuatingBandwidth returns a trace oscillating around mean with the
// given relative amplitude (0..1) and period — the LTE/WiFi throughput
// sawtooth streaming stacks must ride out.
func FluctuatingBandwidth(mean units.DataRate, amplitude float64, period time.Duration) BandwidthTrace {
	if amplitude < 0 {
		amplitude = 0
	} else if amplitude > 1 {
		amplitude = 1
	}
	return func(t time.Duration) units.DataRate {
		phase := 2 * math.Pi * float64(t) / float64(period)
		return units.DataRate(float64(mean) * (1 + amplitude*math.Sin(phase)))
	}
}

// DropoutBandwidth wraps a trace with a periodic full outage of the given
// duty (fraction of each period with zero bandwidth).
func DropoutBandwidth(base BandwidthTrace, period time.Duration, duty float64) BandwidthTrace {
	return func(t time.Duration) units.DataRate {
		frac := float64(t%period) / float64(period)
		if frac < duty {
			return 0
		}
		return base(t)
	}
}

// Source delivers encoded frames over the modeled network. A Source is
// not safe for concurrent use: the constant-rate form remembers the
// step count of the last frame size it delivered.
type Source struct {
	trace BandwidthTrace
	// step is the integration step for bandwidth accumulation.
	step time.Duration

	// constant marks a NewConstantSource: trace is flat at rate, so a
	// frame's step count depends only on its size.
	constant bool
	rate     units.DataRate
	// lastSize and lastSteps memoize the step count of one frame size;
	// lastSteps < 0 means nothing is memoized.
	lastSize  units.ByteSize
	lastSteps int64
}

// NewSource builds a source over the given bandwidth trace.
func NewSource(trace BandwidthTrace) *Source {
	return &Source{trace: trace, step: time.Millisecond}
}

// NewConstantSource builds a source over a flat trace at rate r. Its
// DeliveryTime returns exactly what NewSource(ConstantBandwidth(r))
// returns — the same arrival times and the same horizon errors — but
// runs the integrator once per distinct frame size instead of once per
// frame: at a constant rate the number of steps a frame takes does not
// depend on when it starts.
func NewConstantSource(r units.DataRate) *Source {
	return &Source{trace: ConstantBandwidth(r), step: time.Millisecond, constant: true, rate: r, lastSteps: -1}
}

// DeliveryTime integrates the bandwidth trace from start until size bytes
// have arrived, returning the arrival completion time. It fails if the
// transfer cannot finish within horizon.
func (s *Source) DeliveryTime(start time.Duration, size units.ByteSize, horizon time.Duration) (time.Duration, error) {
	if s.constant {
		return s.constantDelivery(start, size, horizon)
	}
	remaining := float64(size.Bits())
	t := start
	for remaining > 0 {
		if t-start > horizon {
			return 0, horizonError(size, horizon)
		}
		// The conversion rounds the product before the subtraction, so
		// no platform fuses the two into one FMA and the constant-rate
		// path can replay this fold bit for bit.
		bw := float64(s.trace(t))
		remaining -= float64(bw * s.step.Seconds())
		t += s.step
	}
	return t, nil
}

// horizonError is DeliveryTime's failure for a transfer the horizon cut
// short.
func horizonError(size units.ByteSize, horizon time.Duration) error {
	return fmt.Errorf("stream: %v not delivered within %v", size, horizon)
}

// constantDelivery is DeliveryTime at a constant rate. The integrator
// loop above takes some k steps for a frame of this size wherever it
// starts, and it fails exactly when its last check, after k-1 steps,
// already lies past the horizon; so k is all it needs, and k is found by
// replaying the loop's float subtraction once per frame size.
func (s *Source) constantDelivery(start time.Duration, size units.ByteSize, horizon time.Duration) (time.Duration, error) {
	if size.Bits() <= 0 {
		return start, nil
	}
	if s.lastSteps < 0 || s.lastSize != size {
		k, ok := s.countSteps(size, horizon)
		if !ok {
			return 0, horizonError(size, horizon)
		}
		s.lastSize, s.lastSteps = size, k
	}
	if time.Duration(s.lastSteps-1)*s.step > horizon {
		return 0, horizonError(size, horizon)
	}
	return start + time.Duration(s.lastSteps)*s.step, nil
}

// countSteps replays DeliveryTime's loop for one frame and returns its
// step count. It gives up (ok false) where the loop would report the
// horizon error, so a rate too low for the horizon costs no more than
// the loop did; a rate of zero or below never delivers anything and
// gives up at once.
func (s *Source) countSteps(size units.ByteSize, horizon time.Duration) (k int64, ok bool) {
	inc := float64(float64(s.rate) * s.step.Seconds())
	if inc <= 0 {
		return 0, false
	}
	remaining := float64(size.Bits())
	for remaining > 0 {
		if time.Duration(k)*s.step > horizon {
			return 0, false
		}
		remaining -= inc
		k++
	}
	return k, true
}

// JitterBuffer is the encoded-frame staging buffer in DRAM (❶ in Fig 2).
type JitterBuffer struct {
	capacity units.ByteSize
	occupied units.ByteSize
	frames   int

	underruns int
	overflows int
	peak      units.ByteSize
}

// NewJitterBuffer allocates a buffer of the given capacity.
func NewJitterBuffer(capacity units.ByteSize) *JitterBuffer {
	return &JitterBuffer{capacity: capacity}
}

// Push stores one encoded frame; a frame beyond capacity is dropped and
// counted as an overflow.
func (b *JitterBuffer) Push(size units.ByteSize) bool {
	if b.occupied+size > b.capacity {
		b.overflows++
		return false
	}
	b.occupied += size
	b.frames++
	if b.occupied > b.peak {
		b.peak = b.occupied
	}
	return true
}

// Pop removes one frame of the given size for decode; popping from an
// empty buffer records an underrun (a visible stall).
func (b *JitterBuffer) Pop(size units.ByteSize) bool {
	if b.frames == 0 || b.occupied < size {
		b.underruns++
		return false
	}
	b.occupied -= size
	b.frames--
	return true
}

// Stats summarizes buffer behaviour.
type Stats struct {
	Underruns, Overflows, Frames int
	Peak                         units.ByteSize
}

// Stats returns the counters. Frames is the current queued count.
func (b *JitterBuffer) Stats() Stats {
	return Stats{Underruns: b.underruns, Overflows: b.overflows, Frames: b.frames, Peak: b.peak}
}

// Occupied returns the buffered byte count.
func (b *JitterBuffer) Occupied() units.ByteSize { return b.occupied }

// SimulateStreaming plays a stream of frameCount encoded frames of
// frameSize each, arriving over src and consumed at the video frame rate
// after prebuffering prebuf frames. It returns the buffer statistics —
// the experiment behind the paper's observation that buffering tolerates
// bandwidth fluctuation.
func SimulateStreaming(src *Source, buf *JitterBuffer, frameSize units.ByteSize, frameCount int, fps units.FPS, prebuf int) (Stats, error) {
	if fps <= 0 || frameCount <= 0 {
		return Stats{}, fmt.Errorf("stream: invalid parameters")
	}
	interval := fps.FrameInterval()
	horizon := time.Duration(frameCount+1) * interval * 10

	// Arrival process.
	arrivals := make([]time.Duration, frameCount)
	t := time.Duration(0)
	for i := range arrivals {
		var err error
		t, err = src.DeliveryTime(t, frameSize, horizon)
		if err != nil {
			return Stats{}, err
		}
		arrivals[i] = t
	}
	// Consumption starts once prebuf frames have arrived.
	if prebuf < 1 {
		prebuf = 1
	}
	if prebuf > frameCount {
		prebuf = frameCount
	}
	playStart := arrivals[prebuf-1]

	ai := 0
	for f := 0; f < frameCount; f++ {
		deadline := playStart + time.Duration(f)*interval
		for ai < frameCount && arrivals[ai] <= deadline {
			if !buf.Push(frameSize) {
				// Flow control: a full buffer pauses the download (the
				// client stops fetching) rather than dropping frames.
				break
			}
			ai++
		}
		buf.Pop(frameSize)
	}
	return buf.Stats(), nil
}
