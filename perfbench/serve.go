package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"burstlink/internal/api"
	"burstlink/internal/server"
)

// blkd is one in-process server on a loopback listener, driven over a
// single keep-alive connection.
type blkd struct {
	srv  *server.Server
	stop func() error
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func startBlkd() (*blkd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{NodeID: "perfbench"})
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &blkd{
		srv:  srv,
		stop: srv.Start(ln),
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: tr},
	}, nil
}

// post sends body to path and returns the response body, which stays
// valid until the next call. A status other than 200 is an error.
func (d *blkd) post(path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	d.buf.Reset()
	_, err = d.buf.ReadFrom(resp.Body)
	// The body has been read to the end (or failed); Close adds nothing.
	_ = resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, d.buf.Bytes())
	}
	return d.buf.Bytes(), nil
}

func (d *blkd) close() error {
	d.hc.CloseIdleConnections()
	return d.stop()
}

// reference answers requests with the scratch engine: no result cache,
// no coalescing, no delta simulation. Its bodies are what every served
// body must equal byte for byte.
type reference struct{ h http.Handler }

func newReference() reference {
	return reference{server.New(server.Config{
		NodeID:          "reference",
		DisableCache:    true,
		DisableCoalesce: true,
		DisableDelta:    true,
	}).Handler()}
}

func (r reference) post(path string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference %s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// compare byte-compares each served body of one request against the
// reference's answer and notes one operation per body.
func (r reference) compare(t *tally, path string, body []byte, served ...[]byte) {
	want, err := r.post(path, body)
	for _, got := range served {
		if err == nil && !bytes.Equal(got, want) {
			t.note(fmt.Errorf("%s %s: served body differs from the scratch engine's:\n got %.300s\nwant %.300s", path, body, got, want))
			continue
		}
		t.note(err)
	}
}

// checkSession decodes a session body and checks it answers req.
func checkSession(req api.SessionRequest, body []byte) error {
	var resp api.SessionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding session response: %w", err)
	}
	if resp.Scheme != req.Scheme || resp.Frames != req.Seconds*int(req.FPS) {
		return fmt.Errorf("session response %s/%d frames does not answer %s/%ds at %dfps",
			resp.Scheme, resp.Frames, req.Scheme, req.Seconds, req.FPS)
	}
	return nil
}

func marshalAll(reqs []api.SessionRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// hotOrder is the seeded order serve-hot cycles through its hot set.
func hotOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
}

// serveHot cycles a warmed hot set: every timed request is a
// result-cache hit, and every response must equal the scenario's first
// response byte for byte.
type serveHot struct {
	d      *blkd
	bodies [][]byte
	want   [][]byte
	order  []int
	sample int
}

func setupServeHot(o options) (bench, error) {
	reqs := hotSet(o.seed, o.sizes.hotSet)
	bodies, err := marshalAll(reqs)
	if err != nil {
		return nil, err
	}
	d, err := startBlkd()
	if err != nil {
		return nil, err
	}
	h := &serveHot{d: d, bodies: bodies, want: make([][]byte, len(reqs)),
		order: hotOrder(o.seed, len(reqs)), sample: o.sizes.checkSample}
	for k, body := range bodies {
		got, err := d.post("/v1/session", body)
		if err == nil {
			err = checkSession(reqs[k], got)
		}
		if err != nil {
			_ = d.close()
			return nil, fmt.Errorf("warming hot set: %w", err)
		}
		h.want[k] = bytes.Clone(got)
	}
	for i := 0; i < o.sizes.hotWarmup; i++ {
		if err := h.op(i); err != nil {
			_ = d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return h, nil
}

func (h *serveHot) op(i int) error {
	k := h.order[i%len(h.order)]
	got, err := h.d.post("/v1/session", h.bodies[k])
	if err != nil {
		return err
	}
	if !bytes.Equal(got, h.want[k]) {
		return fmt.Errorf("hot scenario %d: body differs from its first response", k)
	}
	return nil
}

// check byte-compares a fixed sample of the hot set, as first served and
// as served now, against the scratch engine.
func (h *serveHot) check(t *tally) {
	ref := newReference()
	for k := 0; k < h.sample && k < len(h.bodies); k++ {
		served := [][]byte{h.want[k]}
		if got, err := h.d.post("/v1/session", h.bodies[k]); err != nil {
			t.note(err)
		} else {
			served = append(served, got)
		}
		ref.compare(t, "/v1/session", h.bodies[k], served...)
	}
}

func (h *serveHot) info() map[string]any {
	return map[string]any{"hot_set": len(h.bodies), "server": h.d.srv.Stats()}
}

func (h *serveHot) close() error { return h.d.close() }

// serveSweep walks the grid one knob at a time against a server started
// cold, so most requests miss the result cache and the segment engine
// does the work.
type serveSweep struct {
	d       *blkd
	w       *walk
	sample  int
	samples []sampled
	seen    map[string]bool
}

// sampled is one distinct request of the timed phase and the body it
// was served.
type sampled struct{ body, got []byte }

func setupServeSweep(o options) (bench, error) {
	// Warm the process — code paths, heap, loopback — on a throwaway
	// server walking another stream, so the timed server starts cold
	// but the process does not.
	tmp, err := startBlkd()
	if err != nil {
		return nil, err
	}
	ww := newWalk(^o.seed)
	for i := 0; i < o.sizes.sweepWarmup; i++ {
		req := ww.next()
		body, err := json.Marshal(req)
		if err == nil {
			var got []byte
			if got, err = tmp.post("/v1/session", body); err == nil {
				err = checkSession(req, got)
			}
		}
		if err != nil {
			_ = tmp.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := tmp.close(); err != nil {
		return nil, err
	}
	d, err := startBlkd()
	if err != nil {
		return nil, err
	}
	return &serveSweep{d: d, w: newWalk(o.seed), sample: o.sizes.checkSample, seen: make(map[string]bool)}, nil
}

func (s *serveSweep) op(int) error {
	req := s.w.next()
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	got, err := s.d.post("/v1/session", body)
	if err != nil {
		return err
	}
	if err := checkSession(req, got); err != nil {
		return err
	}
	if len(s.samples) < s.sample && !s.seen[string(body)] {
		s.seen[string(body)] = true
		s.samples = append(s.samples, sampled{body, bytes.Clone(got)})
	}
	return nil
}

// check byte-compares the first distinct requests of the walk, as served
// in the timed phase and as served now, against the scratch engine.
func (s *serveSweep) check(t *tally) {
	ref := newReference()
	for _, sm := range s.samples {
		served := [][]byte{sm.got}
		if got, err := s.d.post("/v1/session", sm.body); err != nil {
			t.note(err)
		} else {
			served = append(served, got)
		}
		ref.compare(t, "/v1/session", sm.body, served...)
	}
}

func (s *serveSweep) info() map[string]any {
	return map[string]any{"server": s.d.srv.Stats()}
}

func (s *serveSweep) close() error { return s.d.close() }
