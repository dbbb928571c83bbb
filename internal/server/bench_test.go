package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"burstlink/internal/api"
)

// BenchmarkServeHit is one POST /v1/session answered by the result
// tier: strict decode, canonical key and one LRU lookup.
func BenchmarkServeHit(b *testing.B) { benchServe(b, Config{}, api.CacheHit) }

// BenchmarkServeMiss is the same request with the result cache off, so
// every iteration runs the session engine over a warm segment cache.
func BenchmarkServeMiss(b *testing.B) { benchServe(b, Config{DisableCache: true}, api.CacheMiss) }

// benchServe drives testRequest through Handler() after one warming
// request and checks every response's status and X-Cache value.
func benchServe(b *testing.B, cfg Config, want api.CacheStatus) {
	h := New(cfg).Handler()
	body, err := json.Marshal(testRequest())
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/session", bytes.NewReader(body)))
		return rec
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Code != http.StatusOK || rec.Header().Get(api.CacheHeader) != string(want) {
			b.Fatalf("status %d, X-Cache %q, want 200 %q", rec.Code, rec.Header().Get(api.CacheHeader), want)
		}
	}
}
