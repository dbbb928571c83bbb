package memo

import (
	"context"
	"errors"
	"testing"
	"time"
)

// within fails the test unless ch delivers before the deadline: the
// failure modes these tests pin are hangs, so a broken Group must fail
// rather than block the suite.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5s", what)
		panic("unreachable")
	}
}

// followerCtx reports on attached each time Do asks for its Done
// channel, which Do does only once it holds the flight it will wait on:
// a test that has seen the report can release the leader knowing the
// follower is attached.
type followerCtx struct {
	context.Context
	attached chan struct{}
}

func (c followerCtx) Done() <-chan struct{} {
	c.attached <- struct{}{}
	return c.Context.Done()
}

type outcome struct {
	val string
	st  Status
	err error
}

// startFollowers launches n Do calls on key and returns once all n are
// attached to the flight already in progress.
func startFollowers(t *testing.T, ctx context.Context, g *Group[string], key string, n int) <-chan outcome {
	fctx := followerCtx{ctx, make(chan struct{}, n)}
	out := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			v, st, err := g.Do(fctx, key, func() (string, error) {
				t.Error("follower compute ran; the call was not coalesced")
				return "follower", nil
			})
			out <- outcome{v, st, err}
		}()
	}
	for i := 0; i < n; i++ {
		within(t, fctx.attached, "follower attach")
	}
	return out
}

// TestGroupCoalesces pins the coalescing mechanism itself, with the LRU
// disabled so only the flight table can dedupe: followers attached to a
// leader share its exact value, compute runs once, and the flight table
// is empty again afterwards.
func TestGroupCoalesces(t *testing.T) {
	g := NewGroup[string](0)
	started, release := make(chan struct{}), make(chan struct{})
	calls := 0
	leader := make(chan outcome, 1)
	go func() {
		v, st, err := g.Do(context.Background(), "k", func() (string, error) {
			calls++
			close(started)
			<-release
			return "leader", nil
		})
		leader <- outcome{v, st, err}
	}()
	<-started
	const followers = 4
	fo := startFollowers(t, context.Background(), g, "k", followers)
	close(release)

	if ld := within(t, leader, "leader"); ld != (outcome{"leader", Miss, nil}) {
		t.Fatalf("leader outcome = %+v", ld)
	}
	for i := 0; i < followers; i++ {
		if o := within(t, fo, "follower"); o != (outcome{"leader", Coalesced, nil}) {
			t.Fatalf("follower outcome = %+v", o)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if st := g.Stats(); st.Coalesced != followers || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	v, st, err := g.Do(context.Background(), "k", func() (string, error) { return "fresh", nil })
	if v != "fresh" || st != Miss || err != nil {
		t.Fatalf("post-flight Do = %q %s %v", v, st, err)
	}
}

// TestGroupPanicLeavesKeyRecomputable: a panicking compute re-panics in
// its leader with the original value, hands every attached follower
// ErrComputePanicked, caches nothing, and leaves the key free — the next
// Do leads and succeeds instead of blocking on a flight that never ends.
func TestGroupPanicLeavesKeyRecomputable(t *testing.T) {
	g := NewGroup[string](8)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _, _ = g.Do(context.Background(), "k", func() (string, error) {
			close(started)
			<-release
			panic("compute exploded")
		})
	}()
	<-started
	const followers = 3
	fo := startFollowers(t, context.Background(), g, "k", followers)
	close(release)

	if r := within(t, recovered, "panicking leader"); r != "compute exploded" {
		t.Fatalf("leader recovered %v, want the original panic value", r)
	}
	for i := 0; i < followers; i++ {
		o := within(t, fo, "follower of a panicked leader")
		if !errors.Is(o.err, ErrComputePanicked) || o.val != "" || o.st != Coalesced {
			t.Fatalf("follower outcome = %+v, want ErrComputePanicked", o)
		}
	}
	if st := g.Stats(); st.Entries != 0 {
		t.Fatalf("a panicked compute was cached: %+v", st)
	}

	next := make(chan outcome, 1)
	go func() {
		v, st, err := g.Do(context.Background(), "k", func() (string, error) { return "recovered", nil })
		next <- outcome{v, st, err}
	}()
	if o := within(t, next, "Do after a panic"); o != (outcome{"recovered", Miss, nil}) {
		t.Fatalf("Do after a panic = %+v", o)
	}
}

// TestGroupFollowerLeavesOnItsDeadline: a follower waits on its own ctx
// as well as the leader, so it returns ctx.Err() promptly while the
// leader is still computing; the leader finishes undisturbed and its
// value is cached.
func TestGroupFollowerLeavesOnItsDeadline(t *testing.T) {
	g := NewGroup[string](8)
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan outcome, 1)
	go func() {
		v, st, err := g.Do(context.Background(), "k", func() (string, error) {
			close(started)
			<-release
			return "slow", nil
		})
		leader <- outcome{v, st, err}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	o := within(t, startFollowers(t, ctx, g, "k", 1), "follower past its deadline")
	if !errors.Is(o.err, context.DeadlineExceeded) || o.st != Coalesced {
		t.Fatalf("expired follower = %+v, want context.DeadlineExceeded", o)
	}
	select {
	case ld := <-leader:
		t.Fatalf("leader finished before release: %+v", ld)
	default:
	}

	close(release)
	if ld := within(t, leader, "leader"); ld != (outcome{"slow", Miss, nil}) {
		t.Fatalf("leader outcome = %+v", ld)
	}
	v, st, err := g.Do(context.Background(), "k", func() (string, error) { return "recomputed", nil })
	if v != "slow" || st != Hit || err != nil {
		t.Fatalf("after the leader finished: Do = %q %s %v, want the cached value", v, st, err)
	}
}
