package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"burstlink/internal/api"
	"burstlink/internal/fleet"
	"burstlink/internal/memo"
	"burstlink/internal/sink"
)

// segmentEntries and resultEntries match blkd's default cache sizes, so
// the benchmark-owned caches behave like the server's.
const (
	segmentEntries = 8192
	resultEntries  = 4096
)

// fleetBench posts one reference-population fleet run per operation,
// each with a fresh population seed: every request misses the result
// cache, and the segment cache, warmed during set-up, leaves the engine
// nearly idle, so sampling, device keys and the aggregate fold do the
// work.
type fleetBench struct {
	d     *blkd
	seeds fleetSeeds
	size  int
}

func fleetBody(size int, seed uint64) ([]byte, error) {
	return json.Marshal(api.FleetRequest{Size: size, Seed: seed})
}

func setupFleet(o options) (bench, error) {
	d, err := startBlkd()
	if err != nil {
		return nil, err
	}
	f := &fleetBench{d: d, seeds: newFleetSeeds(o.seed), size: o.sizes.fleetDevices}
	if err := f.post(f.seeds.warm()); err != nil {
		_ = d.close()
		return nil, fmt.Errorf("warming segment cache: %w", err)
	}
	return f, nil
}

func (f *fleetBench) post(seed uint64) error {
	body, err := fleetBody(f.size, seed)
	if err != nil {
		return err
	}
	got, err := f.d.post("/v1/fleet", body)
	if err != nil {
		return err
	}
	return checkFleet(got, f.size)
}

func (f *fleetBench) op(i int) error { return f.post(f.seeds.request(i)) }

// checkFleet decodes a fleet body and checks its shape.
func checkFleet(body []byte, size int) error {
	var resp api.FleetResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding fleet response: %w", err)
	}
	if resp.Devices != size || resp.Unique < 1 || len(resp.Metrics) == 0 {
		return fmt.Errorf("fleet response has %d devices, %d configs, %d metrics; want %d devices",
			resp.Devices, resp.Unique, len(resp.Metrics), size)
	}
	return nil
}

// check byte-compares the probe seed's served aggregate against an
// in-process fleet.Run on a fresh segment cache.
func (f *fleetBench) check(t *tally) {
	body, err := fleetBody(f.size, f.seeds.probe())
	if err != nil {
		t.note(err)
		return
	}
	got, err := f.d.post("/v1/fleet", body)
	if err != nil {
		t.note(err)
		return
	}
	want, _, err := inProcessFleet(memo.NewCache(segmentEntries), f.size, f.seeds.probe())
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("fleet seed %d: served aggregate differs from in-process fleet.Run:\n got %.300s\nwant %.300s",
			f.seeds.probe(), got, want)
	}
	t.note(err)
}

// inProcessFleet runs the population of a wire request in process and
// encodes the response blkd would send for it.
func inProcessFleet(c *memo.Cache, size int, seed uint64) ([]byte, fleet.Outcome, error) {
	req := api.FleetRequest{Size: size, Seed: seed}
	req.Normalize()
	pop, err := req.ToPopulation()
	if err != nil {
		return nil, fleet.Outcome{}, err
	}
	var agg sink.Agg
	out, err := fleet.Run(context.Background(), pop, &agg, fleet.Options{Memo: c})
	if err != nil {
		return nil, out, err
	}
	b, err := json.Marshal(api.FleetResponse{
		Devices: out.Devices,
		Unique:  out.Unique,
		Scheme:  req.Scheme,
		Metrics: agg.Summaries(),
	})
	return b, out, err
}

func (f *fleetBench) info() map[string]any {
	return map[string]any{"fleet_devices": f.size, "server": f.d.srv.Stats()}
}

func (f *fleetBench) close() error { return f.d.close() }
