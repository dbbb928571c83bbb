// Package flightfix exercises leakcheck's leader rule inside its scope
// (burstlink/internal/server/...): a coalesced flight's leader Adds to
// the call's WaitGroup, runs a caller-supplied compute, and Dones. A
// compute that panics past a plain Done leaves every follower parked in
// Wait forever; only a deferred Done covers the panic. The same
// may-panic edge applies to a par.Gate slot held across a func value.
package flightfix

import (
	"sync"

	"burstlink/internal/par"
)

type call struct {
	wg  sync.WaitGroup
	val int
}

type group struct {
	mu    sync.Mutex
	calls map[string]*call
}

func work() int { return 0 }

// badPlainDone is the wedge shape: fn may panic between Add and Done.
func (g *group) badPlainDone(key string, fn func() int) int {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val
	}
	c := &call{}
	c.wg.Add(1) // want "c.wg.Add is not balanced by c.wg.Done\\(\\) on every path, panics included"
	g.calls[key] = c
	g.mu.Unlock()

	c.val = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val
}

// okDeferredDone is the fixed twin: the deferred Done runs during the
// panic's unwinding too.
func (g *group) okDeferredDone(key string, fn func() int) int {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val
	}
	c := &call{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		c.wg.Done()
	}()

	c.val = fn()
	return c.val
}

// okStaticCompute calls no func value between Add and Done: every path
// reaches the plain Done.
func okStaticCompute(c *call) {
	c.wg.Add(1)
	c.val = work()
	c.wg.Done()
}

// badGateAcrossFunc releases its slot without a defer, so a panicking
// fn leaks it.
func badGateAcrossFunc(g *par.Gate, fn func()) {
	if !g.TryAcquire() { // want "gate slot acquired on g is not released on every path"
		return
	}
	fn()
	g.Release()
}
