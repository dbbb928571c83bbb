package session

import (
	"strings"
	"testing"

	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/stream"
	"burstlink/internal/units"
)

// TestEngineMemoBitIdentical: every (scheme, scenario, length, bitrate)
// cell must produce the exact same Result through the segment cache —
// cold and warm — as the scratch path. Exact struct equality, not
// tolerance: the server's wire determinism depends on memoization being
// invisible.
func TestEngineMemoBitIdentical(t *testing.T) {
	p, m := env()
	eng := Engine{P: p, M: m, Memo: memo.NewCache(256)}
	keyed := NewEngine(p, m, memo.NewCache(256))
	scratch := Engine{P: p, M: m}
	vrScenario := pipeline.Scenario{
		Res:     units.Resolution{Width: 2 * units.VR1080.Width, Height: units.VR1080.Height},
		Refresh: 60, FPS: 60, BPP: 24,
		VR: true, VRSource: units.R4K, MotionFactor: 1.2,
	}
	scenarios := []pipeline.Scenario{
		pipeline.Planar(units.FHD, 60, 30),
		pipeline.Planar(units.R4K, 60, 60),
		vrScenario,
	}
	for _, s := range scenarios {
		for _, sch := range Schemes() {
			for _, sec := range []int{5, 20} {
				for _, br := range []units.DataRate{0, 40 * units.Mbps} {
					cfg := Config{Scenario: s, Scheme: sch, Seconds: sec, Bitrate: br}
					want, err := scratch.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// The legacy full-expansion path must agree too.
					legacy, err := Engine{P: p, M: m, Scratch: true}.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if legacy != want {
						t.Fatalf("%v %v %ds: full expansion %+v != folded %+v", s, sch, sec, legacy, want)
					}
					// Twice: cold fill then warm hit must both match, for
					// a literal Engine and for one built by NewEngine.
					for pass := 0; pass < 2; pass++ {
						for _, e := range []Engine{eng, keyed} {
							got, err := e.Run(cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("%v %v %ds pass %d: memoized %+v != scratch %+v",
									s, sch, sec, pass, got, want)
							}
						}
					}
				}
			}
		}
	}
	st := eng.Memo.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache never exercised: %+v", st)
	}
}

// TestEngineSegmentSharing pins the axis-sharing contract the sweep
// speedup rests on, segment by segment: a bitrate-only change
// recomputes the buffer alone; a length-only change recomputes the
// buffer and the power extension, refolding the cached period
// evaluation; a scheme-only change recomputes the timeline and both
// power segments and reuses the buffer.
func TestEngineSegmentSharing(t *testing.T) {
	p, m := env()
	base := Config{Scenario: pipeline.Planar(units.R4K, 60, 60), Scheme: BurstLink, Seconds: 10}
	eng := NewEngine(p, m, memo.NewCache(256))

	// step runs cfg and checks the misses and hits it adds, and how many
	// entries of each segment the cache then holds: every miss inserts
	// one entry, so the entry counts name the segments that missed.
	step := func(name string, cfg Config, misses, hits uint64, entries map[string]int) {
		t.Helper()
		before := eng.Memo.Stats()
		if _, err := eng.Run(cfg); err != nil {
			t.Fatal(err)
		}
		after := eng.Memo.Stats()
		if got := after.Misses - before.Misses; got != misses {
			t.Errorf("%s: %d segment misses, want %d", name, got, misses)
		}
		if got := after.Hits - before.Hits; got != hits {
			t.Errorf("%s: %d segment hits, want %d", name, got, hits)
		}
		got := map[string]int{}
		for _, e := range eng.Memo.Dump() {
			got[e.Key[:strings.IndexByte(e.Key, ':')]]++
		}
		for seg, n := range entries {
			if got[seg] != n {
				t.Errorf("%s: %d %s entries, want %d (all: %v)", name, got[seg], seg, n, got)
			}
		}
	}

	step("cold", base, 4, 0, map[string]int{"buffer": 1, "timeline": 1, "power-period": 1, "power-extend": 1})

	c := base
	c.Bitrate = 80 * units.Mbps
	step("bitrate change", c, 1, 2, map[string]int{"buffer": 2, "timeline": 1, "power-period": 1, "power-extend": 1})

	// The period evaluation hits: only its extension to the new length
	// is recomputed.
	c = base
	c.Seconds = 45
	step("length change", c, 2, 2, map[string]int{"buffer": 3, "timeline": 1, "power-period": 1, "power-extend": 2})

	c = base
	c.Scheme = Conventional
	step("scheme change", c, 3, 1, map[string]int{"buffer": 3, "timeline": 2, "power-period": 2, "power-extend": 3})

	step("repeat", base, 0, 3, map[string]int{"buffer": 3, "timeline": 2, "power-period": 2, "power-extend": 3})
}

// TestEngineCustomNetworkBypassesBufferCache: an explicit bandwidth
// trace is opaque, so the buffer segment must not be cached under it —
// two different traces with identical knobs must not alias.
func TestEngineCustomNetworkBypassesBufferCache(t *testing.T) {
	p, m := env()
	s := pipeline.Planar(units.FHD, 60, 30)
	good := stream.ConstantBandwidth(100 * units.Mbps)
	bad := stream.ConstantBandwidth(1 * units.Mbps)
	eng := Engine{P: p, M: m, Memo: memo.NewCache(64)}
	cfg := Config{Scenario: s, Scheme: Conventional, Seconds: 5, Bitrate: 8 * units.Mbps, Network: good}
	rGood, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = bad
	rBad, err := eng.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rBad.Stalls == rGood.Stalls {
		t.Fatalf("starved network aliased the healthy buffer result: %d stalls", rBad.Stalls)
	}
}
