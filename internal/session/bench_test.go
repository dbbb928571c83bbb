package session

import (
	"testing"

	"burstlink/internal/memo"
	"burstlink/internal/pipeline"
	"burstlink/internal/power"
	"burstlink/internal/units"
)

func BenchmarkSessionCompare(b *testing.B) {
	p := pipeline.DefaultPlatform()
	m := power.Default()
	cfg := Config{Scenario: pipeline.Planar(units.R4K, 60, 60), Seconds: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(p, m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConfig is the request the engine benchmarks price: a 60 s 4K60
// BurstLink session.
func benchConfig() Config {
	return Config{Scenario: pipeline.Planar(units.R4K, 60, 60), Scheme: BurstLink, Seconds: 60}
}

// BenchmarkEngineRunWarm is a request whose every segment is cached:
// four key hashes and three lookups, whatever the session length.
func BenchmarkEngineRunWarm(b *testing.B) {
	eng := NewEngine(pipeline.DefaultPlatform(), power.Default(), memo.NewCache(64))
	cfg := benchConfig()
	if _, err := eng.Run(cfg); err != nil {
		b.Fatal(err)
	}
	misses := eng.Memo.Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := eng.Memo.Stats(); st.Misses != misses {
		b.Fatalf("warm runs missed %d segments", st.Misses-misses)
	}
}

// BenchmarkEngineRunCold is the same request with no segment cache:
// every segment is computed.
func BenchmarkEngineRunCold(b *testing.B) {
	eng := NewEngine(pipeline.DefaultPlatform(), power.Default(), nil)
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentKey hashes the four chained segment keys of one
// request, the key work a warm Run does.
func BenchmarkSegmentKey(b *testing.B) {
	p, m := pipeline.DefaultPlatform(), power.Default()
	eng := NewEngine(p, m, memo.NewCache(64))
	cfg := benchConfig()
	s := cfg.Scenario
	frames := cfg.Seconds * int(s.FPS)
	buf := bufferInput{Bandwidth: 60 * units.Mbps, NetFrame: 125_000, Frames: frames, FPS: int(s.FPS), Prebuf: int(s.FPS), Capacity: jitterCapacity}
	load := power.LoadOf(p, s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		memo.KeyOf("buffer", buf)
		tl := memo.KeyOf("timeline", timelineInput{Scheme: cfg.Scheme, Scenario: s, Platform: eng.platformKey})
		power.ExtendKey(power.PeriodKey(tl, load, eng.modelKey), frames)
	}
}
