package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"burstlink/internal/api"
)

// await fails the test unless ch delivers within 5s: the failure modes
// pinned here are followers blocked on someone else's execution.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5s", what)
		panic("unreachable")
	}
}

// followerCtx reports on attached each time the result tier asks for
// its Done channel, which it does only once it holds the flight it will
// wait on: a test that has seen the report knows the follower attached.
type followerCtx struct {
	context.Context
	attached chan struct{}
}

func (c followerCtx) Done() <-chan struct{} {
	c.attached <- struct{}{}
	return c.Context.Done()
}

type executed struct {
	body   []byte
	status api.CacheStatus
	aerr   *api.Error
}

// goExecute runs s.execute in the background.
func goExecute(ctx context.Context, s *Server, key string, compute func() ([]byte, *api.Error)) <-chan executed {
	out := make(chan executed, 1)
	go func() {
		body, status, aerr := s.execute(ctx, key, compute)
		out <- executed{body, status, aerr}
	}()
	return out
}

// TestFollowerRetriesAfterLeaderCanceled: when the leader's client
// disconnects, its execution ends in a 499 that belongs to that client
// alone. A follower whose own client is still connected must not
// inherit it (writeAnyError would turn it into an empty 503 on a live
// connection); it retries and is served normally.
func TestFollowerRetriesAfterLeaderCanceled(t *testing.T) {
	s := New(Config{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	leader := goExecute(leaderCtx, s, "k", func() ([]byte, *api.Error) {
		close(started)
		<-release
		return nil, timeoutError(leaderCtx.Err()) // what runSession reports once its client is gone
	})
	<-started
	fctx := followerCtx{context.Background(), make(chan struct{}, 1)}
	follower := goExecute(fctx, s, "k", func() ([]byte, *api.Error) {
		return []byte(`{"ok":true}`), nil
	})
	await(t, fctx.attached, "follower attach")
	cancelLeader()
	close(release)

	if got := await(t, leader, "leader"); got.aerr == nil || got.aerr.Status != 499 {
		t.Fatalf("leader = %+v, want its own 499", got)
	}
	got := await(t, follower, "follower")
	rec := httptest.NewRecorder()
	writeResult(rec, got.body, got.status, got.aerr)
	if rec.Code != 200 || rec.Body.String() != `{"ok":true}` {
		t.Fatalf("follower got %d %q, want 200 with its own body", rec.Code, rec.Body)
	}
	if st := s.results.Stats(); st.Coalesced != 1 {
		t.Fatalf("result tier coalesced %d calls, want 1: the follower never attached to the canceled leader", st.Coalesced)
	}
}

// TestExpiredFollowerTimesOut: a follower honours its own deadline. It
// answers 504 promptly while the leader is still computing, instead of
// waiting out an execution it has no time left for.
func TestExpiredFollowerTimesOut(t *testing.T) {
	s := New(Config{})
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go s.execute(context.Background(), "k", func() ([]byte, *api.Error) {
		close(started)
		<-release
		return []byte("slow"), nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	follower := goExecute(ctx, s, "k", func() ([]byte, *api.Error) {
		t.Error("follower computed; it should have attached to the leader")
		return nil, nil
	})
	if got := await(t, follower, "expired follower"); got.aerr == nil || got.aerr.Status != 504 {
		t.Fatalf("expired follower = %+v, want 504", got)
	}
}
