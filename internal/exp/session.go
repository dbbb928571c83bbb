package exp

import (
	"fmt"

	"burstlink/internal/pipeline"
	"burstlink/internal/session"
	"burstlink/internal/units"
	"burstlink/internal/workload"
)

// Session runs a complete 30-second 4K60 streaming session (network →
// jitter buffer → playback → power) under all four schemes — the
// library's end-to-end smoke experiment.
func Session() (Table, error) {
	e := newEnv()
	cfg := session.Config{Scenario: pipeline.Planar(units.R4K, 60, 60), Seconds: 30}
	eng := session.NewEngine(e.p, e.m, e.memo)
	results, err := eng.Compare(cfg)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID: "session", Title: "30 s 4K60 streaming session, end to end",
		Header: []string{"Scheme", "AvgPower", "Battery", "DRAM/s", "Stalls"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Scheme.String(),
			mw(float64(r.AvgPower)),
			workload.LifeString(r.BatteryLife),
			fmt.Sprintf("%v", r.DRAMRead+r.DRAMWrite),
			fmt.Sprintf("%d", r.Stalls),
		})
	}
	return t, nil
}
