// Package memo is the delta-simulation substrate and blkd's caching
// primitive: a bounded, concurrency-safe cache with request coalescing
// (Group), plus the canonical-key discipline that makes sub-run
// memoization sound.
//
// The repository's simulations compose from named timeline segments
// (jitter-buffer delivery, per-period phase timelines, per-period power
// integration, synthetic codec byte streams), each a pure function of a
// narrow, explicit input struct. Package memo pushes internal/api's
// per-request canonical-hash discipline down to that sub-run
// granularity: a segment input renders itself into an unambiguous
// canonical byte string through a KeyWriter (every field tagged with its
// name, every variable-length value length-prefixed, so no two distinct
// field sequences collide), the SHA-256 of that string keys the segment
// cache, and a sweep that changes one knob recomputes only the segments
// the knob invalidates. Keys chain: a segment that consumes another's
// output carries that segment's key in its input instead of the output
// itself (Key computes a key once, DoKey runs a segment under it), so a
// downstream key costs the same however large its upstream value is.
//
// Group, the package's cache-plus-coalescing primitive, layers
// internal/cache's LRU under singleflight-style coalescing: concurrent
// misses on one key run compute once and share the value. It serves
// both of blkd's tiers — whole response bodies in internal/server and
// segment outputs here, through Cache and Do. Cached values are
// aliased, never copied — segment outputs are immutable by contract
// (the determinism suite pins that a cached segment is bit-identical to
// a recomputed one). That contract is enforced on two levels: the
// blklint aliascheck analyzer statically rejects writes through
// hit-derived memory, and value types that implement Clone() T opt into
// Do's deep-copy-on-get guard, which hands every caller an owned copy so
// even a mutation the analyzer cannot prove away never reaches the
// cached original.
//
// The companion blklint analyzer memokeycheck enforces the key
// discipline statically: every field of a segment input struct must be
// written into its AppendKey, because a field that influences the
// segment's output but not its key is a silent stale-cache bug.
package memo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"burstlink/internal/cache"
)

// Keyer renders a segment input into its canonical key bytes. The
// contract: two semantically equal inputs append identical bytes, and
// any field mutation changes the bytes (memokeycheck verifies all
// fields are written; the FuzzSegmentKey target exercises the mutation
// half).
type Keyer interface {
	AppendKey(w *KeyWriter)
}

// KeyWriter streams the canonical byte form of a segment input into a
// SHA-256 state. Every append is tagged with a field name and a type
// marker, and every variable-length payload is length-prefixed, so
// distinct append sequences produce distinct byte strings — the
// property the key's collision resistance stands on. Appends collect in
// a fixed buffer that is flushed into the hash when full, so keying an
// input allocates nothing per field. The zero value is ready to use.
type KeyWriter struct {
	h   hash.Hash
	n   int
	buf [256]byte
	sum [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

// writers recycles KeyWriters (hash state and buffers) across KeyOf
// calls.
var writers = sync.Pool{New: func() any { return new(KeyWriter) }}

// Type markers, one per append kind, so e.g. Int(x, 1) and Uint(x, 1)
// cannot alias.
const (
	kindInt    = 'i'
	kindUint   = 'u'
	kindFloat  = 'f'
	kindBool   = 'b'
	kindString = 's'
	kindBytes  = 'y'
	kindSub    = 'n'
	kindEnd    = 'e'
)

// flush moves the buffered bytes into the hash state.
func (w *KeyWriter) flush() {
	if w.h == nil {
		w.h = sha256.New()
	}
	// A hash.Hash's Write never returns an error.
	_, _ = w.h.Write(w.buf[:w.n])
	w.n = 0
}

// room makes at least n bytes of buffer free (n <= len(buf)).
func (w *KeyWriter) room(n int) {
	if len(w.buf)-w.n < n {
		w.flush()
	}
}

// writeString appends s, flushing as often as the buffer fills.
func (w *KeyWriter) writeString(s string) {
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

// writeUvarint appends v in unsigned varint form.
func (w *KeyWriter) writeUvarint(v uint64) {
	w.room(binary.MaxVarintLen64)
	w.n += binary.PutUvarint(w.buf[w.n:], v)
}

// writeUint64 appends v as 8 big-endian bytes.
func (w *KeyWriter) writeUint64(v uint64) {
	w.room(8)
	binary.BigEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

// writeByte appends one byte.
func (w *KeyWriter) writeByte(b byte) {
	w.room(1)
	w.buf[w.n] = b
	w.n++
}

// tag writes the field header: length-prefixed name plus a type marker.
func (w *KeyWriter) tag(name string, kind byte) {
	w.writeUvarint(uint64(len(name)))
	w.writeString(name)
	w.writeByte(kind)
}

// Int appends a signed integer field.
func (w *KeyWriter) Int(name string, v int64) {
	w.tag(name, kindInt)
	w.writeUint64(uint64(v))
}

// Uint appends an unsigned integer field.
func (w *KeyWriter) Uint(name string, v uint64) {
	w.tag(name, kindUint)
	w.writeUint64(v)
}

// Float appends a float field at full bit precision: keys distinguish
// every distinct bit pattern, exactly as the bit-reproducible simulators
// do.
func (w *KeyWriter) Float(name string, v float64) {
	w.tag(name, kindFloat)
	w.writeUint64(math.Float64bits(v))
}

// Bool appends a boolean field.
func (w *KeyWriter) Bool(name string, v bool) {
	w.tag(name, kindBool)
	if v {
		w.writeByte(1)
	} else {
		w.writeByte(0)
	}
}

// String appends a string field, length-prefixed. An upstream
// segment's key enters a chained downstream key this way.
func (w *KeyWriter) String(name string, v string) {
	w.tag(name, kindString)
	w.writeUvarint(uint64(len(v)))
	w.writeString(v)
}

// Bytes appends a raw byte field, length-prefixed.
func (w *KeyWriter) Bytes(name string, v []byte) {
	w.tag(name, kindBytes)
	w.writeUvarint(uint64(len(v)))
	w.writeString(string(v))
}

// Duration appends a time.Duration field.
func (w *KeyWriter) Duration(name string, d time.Duration) {
	w.Int(name, int64(d))
}

// Sub appends a nested Keyer under the field name, bracketed so a
// nested sequence cannot run into the surrounding fields.
func (w *KeyWriter) Sub(name string, k Keyer) {
	w.tag(name, kindSub)
	k.AppendKey(w)
	w.tag(name, kindEnd)
}

// Sum returns the canonical cache key: the segment name (kept readable
// for stats and debugging), a colon, and the hex SHA-256 of the
// accumulated bytes.
func (w *KeyWriter) Sum(segment string) string {
	w.flush()
	w.h.Sum(w.sum[:0])
	hex.Encode(w.hex[:], w.sum[:])
	var b strings.Builder
	b.Grow(len(segment) + 1 + len(w.hex))
	b.WriteString(segment)
	b.WriteByte(':')
	b.Write(w.hex[:])
	return b.String()
}

// KeyOf renders k's canonical key under the given segment name.
func KeyOf(segment string, k Keyer) string {
	w := writers.Get().(*KeyWriter)
	if w.h != nil {
		w.h.Reset()
	}
	w.n = 0
	k.AppendKey(w)
	key := w.Sum(segment)
	writers.Put(w)
	return key
}

// Stats snapshots a Group's counters: the LRU's hit/miss/eviction
// counts plus how many calls were coalesced onto an identical in-flight
// computation.
type Stats struct {
	cache.Stats
	Coalesced uint64
}

// Status says how Group.Do produced its value. The strings are the
// X-Cache values blkd reports.
type Status string

const (
	Hit       Status = "hit"       // served from the LRU
	Miss      Status = "miss"      // computed by this call, the flight's leader
	Coalesced Status = "coalesced" // shared from an identical in-flight computation
)

// ErrComputePanicked is what the followers of a flight receive when the
// leader's compute panics. Nothing is cached, and the next Do on the key
// leads a fresh computation.
var ErrComputePanicked = errors.New("memo: compute panicked")

// Group is the cache-plus-coalescing primitive under both of blkd's
// tiers: an LRU of values keyed by canonical hashes plus a table of
// in-flight computations, so concurrent misses on one key run compute
// once and share its value. Capacity 0 disables the LRU but still
// coalesces. A nil *Group reports Enabled false and zero Stats; only
// the package-level Do accepts one (scratch mode).
//
// Failure semantics: errors are never cached; a panicking compute
// re-panics in its leader, hands its followers ErrComputePanicked and
// leaves the key recomputable; a follower stops waiting when its own ctx
// ends.
//
// The embedded LRU supplies Get, Put and the snapshot pair Dump/Load
// (internal/cluster), which bypass the flight table and the counters.
// Cached values are aliased, never copied: compute must return a value
// that is never mutated afterwards, and callers must not mutate what Do
// returns.
type Group[V any] struct {
	*cache.LRUOf[V]
	mu        sync.Mutex
	flights   map[string]*flight[V]
	coalesced atomic.Uint64
}

// flight is one in-flight computation; done closes once val and err are
// final.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewGroup returns a Group whose LRU holds at most capacity entries.
// capacity <= 0 disables the LRU.
func NewGroup[V any](capacity int) *Group[V] {
	return &Group[V]{LRUOf: cache.NewLRUOf[V](capacity), flights: make(map[string]*flight[V])}
}

// Enabled reports whether the LRU can hold entries at all.
func (g *Group[V]) Enabled() bool { return g != nil && g.LRUOf.Enabled() }

// Stats snapshots the counters. A nil Group reports zeros.
func (g *Group[V]) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{Stats: g.LRUOf.Stats(), Coalesced: g.coalesced.Load()}
}

// Do returns compute's value for key: from the LRU (Hit), by leading a
// new flight (Miss), or by waiting on the flight already computing key
// (Coalesced). A follower whose ctx ends first returns ctx.Err() and
// leaves the flight running; the leader still caches its value.
func (g *Group[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, Status, error) {
	if v, ok := g.Get(key); ok {
		return v, Hit, nil
	}
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			g.coalesced.Add(1)
			return f.val, Coalesced, f.err
		case <-ctx.Done():
			var zero V
			return zero, Coalesced, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{}), err: ErrComputePanicked}
	g.flights[key] = f
	g.mu.Unlock()
	g.lead(key, f, compute)
	return f.val, Miss, f.err
}

// lead runs compute for f and caches a successful value. The cleanup is
// deferred so it also runs while a panic unwinds: f.err then keeps its
// ErrComputePanicked preset, the flight leaves the table, and the panic
// continues with its original value.
func (g *Group[V]) lead(key string, f *flight[V], compute func() (V, error)) {
	defer func() {
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	v, err := compute()
	if err == nil {
		g.Put(key, v)
	}
	f.val, f.err = v, err
}

// Cache is the segment cache: a Group of segment outputs keyed by
// canonical input hashes, so concurrent sweep cells that need the same
// segment run it once. A nil *Cache is the scratch mode: every Do
// computes directly.
type Cache = Group[any]

// NewCache returns a segment cache holding at most capacity entries.
// capacity <= 0 returns a disabled cache (every Do computes directly),
// so callers need no separate "memo off" path.
func NewCache(capacity int) *Cache { return NewGroup[any](capacity) }

// Key returns in's canonical key under segment, or "" when c is nil or
// disabled: scratch mode computes every segment directly and never
// looks a key up, so it never pays for one either.
func Key(c *Cache, segment string, in Keyer) string {
	if !c.Enabled() {
		return ""
	}
	return KeyOf(segment, in)
}

// Do returns the segment output for input in, computing it at most once
// per cache residency: a hit returns the cached value, concurrent
// misses coalesce onto one execution, and a nil or disabled cache
// computes directly (scratch mode). The cached value is aliased:
// compute must return a value that is never mutated afterwards.
//
// Types that implement Clone() T opt into the deep-copy-on-get guard:
// Do returns a clone of the cached value instead of the value itself,
// so no caller ever holds a live alias into the cache. This is the
// runtime twin of the static aliascheck analyzer — aliascheck proves
// callers don't mutate hit-derived memory, the guard makes the cache
// immune even to mutations the analyzer cannot see (unknown-origin
// escapes, reflection, future callers outside the module). The clone
// runs on every enabled-cache return, including the miss that inserted
// the value, because the inserting caller aliases the cache too.
func Do[T any](c *Cache, segment string, in Keyer, compute func() (T, error)) (T, error) {
	return DoKey(c, Key(c, segment, in), compute)
}

// DoKey is Do under a key the caller already holds, as returned by Key.
// It is the chained form: a downstream segment's input carries its
// upstream segment's key in place of the upstream content, so a request
// computes each key once and a downstream key costs the same however
// large the upstream value is.
func DoKey[T any](c *Cache, key string, compute func() (T, error)) (T, error) {
	if !c.Enabled() {
		return compute()
	}
	v, _, err := c.Do(context.Background(), key, func() (any, error) { return compute() })
	if err != nil {
		var zero T
		return zero, err
	}
	if cl, ok := v.(interface{ Clone() T }); ok {
		return cl.Clone(), nil
	}
	return v.(T), nil
}
