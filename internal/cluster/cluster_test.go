// Package cluster_test holds the cluster integration tests — the 2-node
// wire-determinism pin and the snapshot round-trip. It is an external
// test package because it drives real internal/server instances, and
// server imports cluster; the production dependency arrow stays
// server → cluster.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"burstlink/internal/api"
	"burstlink/internal/cluster"
	"burstlink/internal/server"
	"burstlink/internal/units"
)

// wireRequest is one step of a replayed wire sequence.
type wireRequest struct {
	method string
	path   string
	body   []byte
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replay issues one request and returns status, body, and the routed
// node (X-Cluster-Node, empty when hitting a backend directly).
func replay(t *testing.T, base string, r wireRequest) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		t.Fatal(err)
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header.Get(cluster.NodeHeader)
}

func TestTwoNodeWireDeterminism(t *testing.T) {
	seq := []wireRequest{
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "conventional", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 60, Seconds: 3})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burst-only", Resolution: "4K", Refresh: 60, FPS: 30, Seconds: 2})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3})}, // duplicate of #1
		// Re-spelled duplicate of #2: BPP and PrebufferFrames are written
		// out instead of defaulted, so the wire bytes differ but the
		// canonical key — and therefore the routed node — must match.
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 60, Seconds: 3, BPP: 24, PrebufferFrames: 60})},
		{"POST", "/v1/sweep", marshal(t, api.SweepRequest{
			Schemes: []string{"conventional", "burstlink"}, Resolutions: []string{"FHD"},
			FPS: []units.FPS{30}, Refresh: 60, Seconds: 3,
		})},
		{"POST", "/v1/fleet", marshal(t, api.FleetRequest{Size: 40, Seed: 7})},
		{"GET", "/v1/exp", nil},
		{"GET", "/v1/exp/fig9", nil},
	}

	// Baseline: one plain node, the sequence in order.
	single := httptest.NewServer(server.New(server.Config{NodeID: "solo"}).Handler())
	defer single.Close()
	baseline := make([][]byte, len(seq))
	for i, r := range seq {
		status, body, _ := replay(t, single.URL, r)
		if status != 200 {
			t.Fatalf("baseline request %d (%s %s): status %d: %s", i, r.method, r.path, status, body)
		}
		baseline[i] = body
	}

	// Cluster: two nodes behind a router.
	nodeA := httptest.NewServer(server.New(server.Config{NodeID: "a"}).Handler())
	defer nodeA.Close()
	nodeB := httptest.NewServer(server.New(server.Config{NodeID: "b"}).Handler())
	defer nodeB.Close()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: []string{nodeA.URL, nodeB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	routed := make([]string, len(seq))
	for i, r := range seq {
		status, body, node := replay(t, front.URL, r)
		if status != 200 {
			t.Fatalf("routed request %d (%s %s): status %d: %s", i, r.method, r.path, status, body)
		}
		if node == "" {
			t.Fatalf("routed request %d: missing %s header", i, cluster.NodeHeader)
		}
		routed[i] = node
		if !bytes.Equal(body, baseline[i]) {
			t.Errorf("request %d (%s %s): cluster bytes diverge from the single node\nsingle: %s\ncluster: %s",
				i, r.method, r.path, baseline[i], body)
		}
	}

	// Ownership is a function of the canonical key: the exact duplicate
	// and the re-spelled duplicate must land on the very node their
	// originals did.
	if routed[4] != routed[1] {
		t.Errorf("exact duplicate routed to %q, original to %q", routed[4], routed[1])
	}
	if routed[5] != routed[2] {
		t.Errorf("re-spelled duplicate routed to %q, original to %q", routed[5], routed[2])
	}

	// Each routed scenario computed on exactly one node: the distinct
	// top-level keys (four sessions, the sweep, the fleet, one
	// experiment) miss once each. The sweep additionally executes its
	// cells through its owner's result cache; a cell whose matching
	// session landed on the *other* node recomputes there, so the exact
	// expectation depends on ring placement — derived below, not guessed.
	ring := rt.Ring()
	sweepReq := api.SweepRequest{
		Schemes: []string{"conventional", "burstlink"}, Resolutions: []string{"FHD"},
		FPS: []units.FPS{30}, Refresh: 60, Seconds: 3,
	}
	sweepReq.Normalize()
	sweepOwner := ring.Owner(sweepReq.CacheKey())
	displaced := 0
	for _, scheme := range sweepReq.Schemes {
		cell := api.SessionRequest{Scheme: scheme, Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3}
		cell.Normalize()
		if ring.Owner(cell.CacheKey()) != sweepOwner {
			displaced++
		}
	}

	statsA := nodeStats(t, nodeA.URL)
	statsB := nodeStats(t, nodeB.URL)
	misses := statsA.CacheMisses + statsB.CacheMisses
	if want := uint64(7 + displaced); misses != want {
		t.Errorf("summed node misses = %d, want %d (7 distinct top-level keys + %d displaced sweep cells)",
			misses, want, displaced)
	}
	// Hits: the exact duplicate, the re-spelled duplicate, and every
	// sweep cell colocated with its session.
	hits := statsA.CacheHits + statsB.CacheHits
	if want := uint64(2 + (2 - displaced)); hits != want {
		t.Errorf("summed node hits = %d, want %d", hits, want)
	}
}

// TestShardedClientMatchesRouter pins that client-side sharding and the
// router agree on ownership: the same ring, the same keys, the same node.
func TestShardedClientMatchesRouter(t *testing.T) {
	nodeA := httptest.NewServer(server.New(server.Config{NodeID: "a"}).Handler())
	defer nodeA.Close()
	nodeB := httptest.NewServer(server.New(server.Config{NodeID: "b"}).Handler())
	defer nodeB.Close()
	urls := []string{nodeA.URL, nodeB.URL}

	sc, ring, err := cluster.NewShardedClient(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 2 || ring.VNodes() != cluster.DefaultVNodes {
		t.Fatalf("sharded client: %d nodes, %d vnodes", sc.Len(), ring.VNodes())
	}

	ctx := context.Background()
	req := api.SessionRequest{Scheme: "burstlink", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 2}
	if _, _, err := sc.Session(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Exactly the ring owner computed it.
	req.Normalize()
	owner := ring.OwnerIndex(req.CacheKey())
	stats, err := sc.StatsAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		want := uint64(0)
		if i == owner {
			want = 1
		}
		if st.CacheMisses != want {
			t.Errorf("node %d (%s): %d misses, want %d", i, st.Node, st.CacheMisses, want)
		}
	}

	// Health fans out across the membership.
	healths, err := sc.HealthAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(healths) != 2 || healths[0].Status != "ok" || healths[1].Status != "ok" {
		t.Fatalf("HealthAll = %+v", healths)
	}
}

// TestSnapshotRoundTrip pins the warm-restart contract: export a loaded
// node's caches, import them into a fresh node, and the fresh node
// serves the same scenarios as pure hits with byte-identical bodies.
func TestSnapshotRoundTrip(t *testing.T) {
	seq := []wireRequest{
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "conventional", Resolution: "FHD", Refresh: 60, FPS: 30, Seconds: 3})},
		{"POST", "/v1/session", marshal(t, api.SessionRequest{Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 60, Seconds: 2})},
		{"POST", "/v1/sweep", marshal(t, api.SweepRequest{
			Schemes: []string{"burstlink"}, Resolutions: []string{"FHD", "QHD"},
			FPS: []units.FPS{30}, Refresh: 60, Seconds: 2,
		})},
	}

	warmNode := server.New(server.Config{NodeID: "warm"})
	ts := httptest.NewServer(warmNode.Handler())
	defer ts.Close()
	bodies := make([][]byte, len(seq))
	for i, r := range seq {
		status, body, _ := replay(t, ts.URL, r)
		if status != 200 {
			t.Fatalf("warm request %d: status %d: %s", i, status, body)
		}
		bodies[i] = body
	}

	// Export over the wire, exactly as `blkd -warm` consumes it.
	snapBytes, err := api.NewClient(ts.URL).Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	coldNode := server.New(server.Config{NodeID: "cold"})
	snap, err := coldNode.Warm(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Node != "warm" {
		t.Errorf("snapshot node = %q, want warm", snap.Node)
	}
	if len(snap.Results) == 0 {
		t.Fatal("snapshot carried no result entries")
	}

	cold := httptest.NewServer(coldNode.Handler())
	defer cold.Close()
	for i, r := range seq {
		status, body, _ := replay(t, cold.URL, r)
		if status != 200 {
			t.Fatalf("cold request %d: status %d: %s", i, status, body)
		}
		if !bytes.Equal(body, bodies[i]) {
			t.Errorf("request %d: warmed node bytes diverge from the origin\norigin: %s\nwarmed: %s",
				i, bodies[i], body)
		}
	}

	// The warmed node answered everything from the imported cache:
	// identical hit behavior means zero misses and one hit per request.
	warmStats := warmNode.Stats()
	coldStats := coldNode.Stats()
	if coldStats.CacheMisses != 0 {
		t.Errorf("warmed node recomputed %d scenarios, want 0", coldStats.CacheMisses)
	}
	if coldStats.CacheHits != uint64(len(seq)) {
		t.Errorf("warmed node hits = %d, want %d", coldStats.CacheHits, len(seq))
	}
	if coldStats.CacheEntries != warmStats.CacheEntries {
		t.Errorf("warmed node holds %d entries, origin %d", coldStats.CacheEntries, warmStats.CacheEntries)
	}
}

// TestSnapshotKeepsEverySegment: a snapshot of a node that has served
// a session carries every segment value the run cached — none skipped
// for an unregistered gob type — and a node warmed from it answers the
// same session byte for byte without a single segment miss. Both nodes
// run with the result cache off, so the warmed node's answer really is
// recomposed from the imported segments.
func TestSnapshotKeepsEverySegment(t *testing.T) {
	req := wireRequest{"POST", "/v1/session", marshal(t, api.SessionRequest{
		Scheme: "burstlink", Resolution: "QHD", Refresh: 60, FPS: 60, Seconds: 4,
	})}
	serve := func(node *server.Server) []byte {
		t.Helper()
		ts := httptest.NewServer(node.Handler())
		defer ts.Close()
		status, body, _ := replay(t, ts.URL, req)
		if status != 200 {
			t.Fatalf("status %d: %s", status, body)
		}
		return body
	}

	origin := server.New(server.Config{NodeID: "origin", DisableCache: true})
	want := serve(origin)
	var snapBytes bytes.Buffer
	if err := origin.WriteSnapshot(&snapBytes); err != nil {
		t.Fatal(err)
	}
	snap, err := cluster.DecodeSnapshot(bytes.NewReader(snapBytes.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.SegmentsSkipped != 0 {
		t.Errorf("snapshot skipped %d segment values", snap.SegmentsSkipped)
	}
	if n := origin.Stats().SegmentEntries; len(snap.Segments) != n || n == 0 {
		t.Errorf("snapshot carries %d segments, origin holds %d", len(snap.Segments), n)
	}

	warmed := server.New(server.Config{NodeID: "warmed", DisableCache: true})
	if _, err := warmed.Warm(bytes.NewReader(snapBytes.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := serve(warmed); !bytes.Equal(got, want) {
		t.Errorf("warmed node answered %s, origin %s", got, want)
	}
	if st := warmed.Stats(); st.SegmentMisses != 0 || st.SegmentHits == 0 {
		t.Errorf("warmed node: %d segment misses, %d hits; want 0 misses", st.SegmentMisses, st.SegmentHits)
	}
}

// nodeStats fetches one backend's /v1/stats document.
func nodeStats(t *testing.T, base string) api.Stats {
	t.Helper()
	st, err := api.NewClient(base).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}
