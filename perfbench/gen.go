package main

import (
	"math/rand"

	"burstlink/internal/api"
	"burstlink/internal/units"
)

// The generators below are the benchmark's own, so a change to the
// program's load generator cannot change the traffic: every input is a
// pure function of the seed. They draw from the §6 evaluation grid —
// display scheme × panel resolution × content fps — plus playback
// length and bitrate.

var (
	gridSchemes     = []string{"conventional", "burst-only", "bypass-only", "burstlink"}
	gridResolutions = []string{"FHD", "QHD", "4K"}
	gridFPS         = []units.FPS{30, 60}
)

const (
	minSeconds   = 20
	spanSeconds  = 41 // playback lengths 20..60 s
	baseMbps     = 40
	spanBitrates = 4000 // bitrates 40..4039 Mb/s
)

// gridRequest decodes j (mixed radix) into one scenario of the grid.
func gridRequest(j int) api.SessionRequest {
	req := api.SessionRequest{Refresh: 60, BPP: 24}
	req.Scheme = gridSchemes[j%len(gridSchemes)]
	j /= len(gridSchemes)
	req.Resolution = gridResolutions[j%len(gridResolutions)]
	j /= len(gridResolutions)
	req.FPS = gridFPS[j%len(gridFPS)]
	j /= len(gridFPS)
	req.Seconds = minSeconds + j%spanSeconds
	j /= spanSeconds
	req.Bitrate = units.DataRate(baseMbps+j%spanBitrates) * units.Mbps
	req.PrebufferFrames = int(req.FPS)
	return req
}

// gridSize is the number of scenarios gridRequest enumerates before the
// bitrate axis; hot sets draw from grid × a few bitrates.
const gridSize = 4 * 3 * 2 * spanSeconds

// hotSet returns n distinct scenarios (n <= 4*gridSize) in a seeded
// order; serve-hot cycles through them.
func hotSet(seed int64, n int) []api.SessionRequest {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(4 * gridSize)
	out := make([]api.SessionRequest, n)
	for i := range out {
		out[i] = gridRequest(perm[i])
	}
	return out
}

// walk is the axis-neighbor walk of serve-sweep: each request moves
// exactly one knob of the previous one — scheme, resolution, fps,
// length or bitrate — the way a planner explores the grid. Neighbors
// share the segments the moved knob does not invalidate.
type walk struct {
	rng     *rand.Rand
	cur     api.SessionRequest
	bitrate int
	started bool
}

func newWalk(seed int64) *walk {
	rng := rand.New(rand.NewSource(seed))
	return &walk{rng: rng, cur: gridRequest(rng.Intn(gridSize))}
}

// next returns the walk's next request; the first call returns the
// start.
func (w *walk) next() api.SessionRequest {
	if !w.started {
		w.started = true
		return w.cur
	}
	r := &w.cur
	switch w.rng.Intn(5) {
	case 0:
		r.Scheme = gridSchemes[(indexOf(gridSchemes, r.Scheme)+1)%len(gridSchemes)]
	case 1:
		r.Resolution = gridResolutions[(indexOf(gridResolutions, r.Resolution)+1)%len(gridResolutions)]
	case 2:
		if r.FPS == 30 {
			r.FPS = 60
		} else {
			r.FPS = 30
		}
		r.PrebufferFrames = int(r.FPS)
	case 3:
		r.Seconds = minSeconds + (r.Seconds-minSeconds+1)%spanSeconds
	default:
		w.bitrate = (w.bitrate + 1) % spanBitrates
		r.Bitrate = units.DataRate(baseMbps+w.bitrate) * units.Mbps
	}
	return w.cur
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return 0
}

// fleetSeeds is the population seed sequence of fleet-batch: request i
// uses base+i, so every timed request is a distinct population and
// misses the result cache. warm and probe precede the sequence and are
// never timed: warm fills the segment cache during set-up, probe is the
// seed whose aggregate is checked against an in-process run.
type fleetSeeds struct{ base uint64 }

func newFleetSeeds(seed int64) fleetSeeds {
	// splitmix64 finalizer: neighbouring benchmark seeds give unrelated
	// population seed ranges.
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return fleetSeeds{base: (z ^ (z >> 31)) >> 1}
}

func (f fleetSeeds) request(i int) uint64 { return f.base + uint64(i) }
func (f fleetSeeds) warm() uint64         { return f.base - 1 }
func (f fleetSeeds) probe() uint64        { return f.base - 2 }
