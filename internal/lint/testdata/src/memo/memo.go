// Package memo is a stub of burstlink/internal/memo for fixture tests:
// just the KeyWriter surface the memokeycheck fixtures need to
// type-check. memokeycheck matches the parameter type by the .../memo
// package-path suffix, so this stub resolves exactly like the real one.
package memo

import (
	"context"
	"time"
)

// Keyer is the canonical-key interface segment inputs implement.
type Keyer interface {
	AppendKey(w *KeyWriter)
}

// KeyWriter is the canonical-key builder stub.
type KeyWriter struct{}

// Int writes a named signed integer field.
func (w *KeyWriter) Int(name string, v int64) {}

// Uint writes a named unsigned integer field.
func (w *KeyWriter) Uint(name string, v uint64) {}

// Float writes a named float field.
func (w *KeyWriter) Float(name string, v float64) {}

// Bool writes a named boolean field.
func (w *KeyWriter) Bool(name string, v bool) {}

// String writes a named string field.
func (w *KeyWriter) String(name string, v string) {}

// Duration writes a named duration field.
func (w *KeyWriter) Duration(name string, v time.Duration) {}

// Sub writes a named nested keyer.
func (w *KeyWriter) Sub(name string, k Keyer) {}

// Cache is the segment-cache stub: Do computes directly; Get and Put
// give the value-flow layer a hit source and an insertion sink that
// resolve exactly like the real burstlink/internal/memo.
type Cache struct{ m map[string]any }

// NewCache returns a stub cache.
func NewCache(capacity int) *Cache { return &Cache{m: map[string]any{}} }

// Get returns the cached value, aliased.
func (c *Cache) Get(key string) (any, bool) {
	v, ok := c.m[key]
	return v, ok
}

// Put stores v, retaining the reference.
func (c *Cache) Put(key string, v any) { c.m[key] = v }

// Do runs compute directly; the real Do memoizes it.
func Do[T any](c *Cache, segment string, in Keyer, compute func() (T, error)) (T, error) {
	return compute()
}

// DoKey runs compute directly; the real DoKey memoizes it under a key
// the caller already holds.
func DoKey[T any](c *Cache, key string, compute func() (T, error)) (T, error) {
	return compute()
}

// Group is the cache-plus-coalescing stub: Do computes directly; the
// real Do serves hits from its LRU, so the value-flow layer treats its
// first result as cache-resident memory.
type Group[V any] struct{ m map[string]V }

// NewGroup returns a stub group.
func NewGroup[V any](capacity int) *Group[V] { return &Group[V]{m: map[string]V{}} }

// Do runs compute directly; the real Do caches and coalesces it.
func (g *Group[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, string, error) {
	v, err := compute()
	return v, "miss", err
}
