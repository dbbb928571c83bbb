package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// pair is a minimal two-field segment input for cache tests.
type pair struct{ A, B int64 }

func (p pair) AppendKey(w *KeyWriter) {
	w.Int("a", p.A)
	w.Int("b", p.B)
}

func TestDoCachesAndCounts(t *testing.T) {
	c := NewCache(8)
	calls := 0
	get := func(p pair) int64 {
		v, err := Do(c, "sum", p, func() (int64, error) { calls++; return p.A + p.B, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get(pair{2, 3}) != 5 || get(pair{2, 3}) != 5 || get(pair{3, 2}) != 5 {
		t.Fatal("wrong values")
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (field order matters: {2,3} != {3,2})", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoNeverCachesErrors(t *testing.T) {
	c := NewCache(8)
	calls := 0
	boom := errors.New("boom")
	f := func() (int, error) { calls++; return 0, boom }
	if _, err := Do(c, "seg", pair{1, 1}, f); !errors.Is(err, boom) {
		t.Fatal("want error")
	}
	if _, err := Do(c, "seg", pair{1, 1}, f); !errors.Is(err, boom) {
		t.Fatal("want error again")
	}
	if calls != 2 {
		t.Fatalf("failed segment was cached (calls=%d)", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error entered cache: %+v", st)
	}
}

func TestNilAndDisabledCacheComputeDirectly(t *testing.T) {
	for _, c := range []*Cache{nil, NewCache(0)} {
		if c.Enabled() {
			t.Fatal("should be disabled")
		}
		calls := 0
		for i := 0; i < 3; i++ {
			v, err := Do(c, "seg", pair{4, 4}, func() (int, error) { calls++; return 9, nil })
			if err != nil || v != 9 {
				t.Fatal("compute failed")
			}
		}
		if calls != 3 {
			t.Fatalf("disabled cache memoized (calls=%d)", calls)
		}
		if st := c.Stats(); st.Hits != 0 && st.Misses != 0 {
			t.Fatalf("disabled cache counted: %+v", st)
		}
	}
}

func TestEvictionBound(t *testing.T) {
	c := NewCache(4)
	for i := int64(0); i < 10; i++ {
		if _, err := Do(c, "seg", pair{i, 0}, func() (int64, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 4 {
		t.Fatalf("bound violated: %+v", st)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
}

// TestCoalescing: concurrent misses on one key run the segment once and
// all observers share the value; the remainder are counted as coalesced.
func TestCoalescing(t *testing.T) {
	c := NewCache(8)
	var calls atomic.Int64
	release := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	vals := make([]int64, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := Do(c, "slow", pair{7, 7}, func() (int64, error) {
				calls.Add(1)
				<-release
				return 14, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let the leader win the key and the followers queue behind it, then
	// release. (A follower that arrives after completion hits the LRU
	// instead — also a single computation.)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("segment computed %d times under concurrency", got)
	}
	for i, v := range vals {
		if v != 14 {
			t.Fatalf("worker %d saw %d", i, v)
		}
	}
	st := c.Stats()
	if st.Hits+st.Coalesced != workers-1 {
		t.Fatalf("hits %d + coalesced %d != %d", st.Hits, st.Coalesced, workers-1)
	}
}

// TestKeyWriterUnambiguous pins the anti-collision framing: append
// sequences whose flat concatenations coincide must produce different
// keys.
func TestKeyWriterUnambiguous(t *testing.T) {
	key := func(f func(w *KeyWriter)) string {
		var w KeyWriter
		f(&w)
		return w.Sum("s")
	}
	cases := [][2]func(w *KeyWriter){
		// Name/value boundary shifts.
		{func(w *KeyWriter) { w.String("ab", "c") }, func(w *KeyWriter) { w.String("a", "bc") }},
		// One field vs two fields whose bytes concatenate equally.
		{func(w *KeyWriter) { w.String("x", "aabb") },
			func(w *KeyWriter) { w.String("x", "aa"); w.String("x", "bb") }},
		// Same bits, different type marker.
		{func(w *KeyWriter) { w.Int("v", 1) }, func(w *KeyWriter) { w.Uint("v", 1) }},
		// Nesting boundary: {a}{b} vs {a,b}.
		{func(w *KeyWriter) { w.Sub("p", pair{1, 2}) },
			func(w *KeyWriter) { w.Int("a", 1); w.Int("b", 2) }},
		// Empty string vs absent field.
		{func(w *KeyWriter) { w.String("s", "") }, func(w *KeyWriter) {}},
	}
	for i, tc := range cases {
		if key(tc[0]) == key(tc[1]) {
			t.Fatalf("case %d: distinct sequences collided", i)
		}
	}
	// Segment names partition the keyspace even for identical bytes.
	if KeyOf("seg1", pair{1, 2}) == KeyOf("seg2", pair{1, 2}) {
		t.Fatal("segment name not part of key")
	}
}

// longInput writes fields whose payloads straddle and exceed the
// writer's buffer.
type longInput struct {
	Name  string
	Blob  []byte
	Inner pair
}

func (l longInput) AppendKey(w *KeyWriter) {
	w.String("name", l.Name)
	w.Bytes("blob", l.Blob)
	w.Sub("inner", l.Inner)
	w.Float("f", 1.5)
	w.Bool("b", true)
	w.Uint("u", 1<<40)
}

// TestKeyWriterStreamsCanonicalBytes: the streamed key is the SHA-256 of
// the canonical byte string, spelled out here byte by byte, whatever
// the payload sizes relative to the writer's buffer — and a pooled
// writer carries nothing over from the key before.
func TestKeyWriterStreamsCanonicalBytes(t *testing.T) {
	field := func(b []byte, name string, kind byte) []byte {
		b = binary.AppendUvarint(b, uint64(len(name)))
		return append(append(b, name...), kind)
	}
	u64 := func(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
	for _, n := range []int{0, 1, 200, 255, 256, 257, 1000, 5000} {
		in := longInput{Name: strings.Repeat("n", n), Blob: bytes.Repeat([]byte{0xab}, n/2+3), Inner: pair{int64(n), -1}}
		var b []byte
		b = field(b, "name", kindString)
		b = binary.AppendUvarint(b, uint64(len(in.Name)))
		b = append(b, in.Name...)
		b = field(b, "blob", kindBytes)
		b = binary.AppendUvarint(b, uint64(len(in.Blob)))
		b = append(b, in.Blob...)
		b = field(b, "inner", kindSub)
		b = u64(field(b, "a", kindInt), uint64(in.Inner.A))
		b = u64(field(b, "b", kindInt), uint64(in.Inner.B))
		b = field(b, "inner", kindEnd)
		b = u64(field(b, "f", kindFloat), math.Float64bits(1.5))
		b = append(field(b, "b", kindBool), 1)
		b = u64(field(b, "u", kindUint), 1<<40)
		sum := sha256.Sum256(b)
		want := "seg:" + hex.EncodeToString(sum[:])
		for pass := 0; pass < 2; pass++ {
			if got := KeyOf("seg", in); got != want {
				t.Fatalf("payload %d pass %d: key %s, want %s", n, pass, got, want)
			}
		}
	}
}

func TestStatsString(t *testing.T) {
	c := NewCache(2)
	_, _ = Do(c, "s", pair{1, 1}, func() (int, error) { return 1, nil })
	st := c.Stats()
	if st.Capacity != 2 || st.Misses != 1 {
		t.Fatalf("%+v", st)
	}
	// Smoke the %+v path used in failure messages.
	if s := fmt.Sprintf("%+v", st); s == "" {
		t.Fatal("empty stats")
	}
}

// row is a cloneable segment output: implementing Clone() row opts it
// into Do's deep-copy-on-get guard.
type row []float64

func (r row) Clone() row { return append(row(nil), r...) }

// TestHitMutationDoesNotPoisonCache is the runtime twin of the
// aliascheck headline finding: a caller that mutates a slice obtained
// from a cache hit must not corrupt what the next hit of the same key
// observes. For cloneable values the deep-copy-on-get guard makes this
// hold unconditionally — on the inserting miss as well as on every hit.
func TestHitMutationDoesNotPoisonCache(t *testing.T) {
	c := NewCache(8)
	calls := 0
	get := func() row {
		v, err := Do(c, "row", pair{1, 2}, func() (row, error) {
			calls++
			return row{1, 2, 3}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	first := get() // miss: the returned value aliases nothing the cache holds
	first[0] = -99

	second := get() // hit: must be pristine despite the mutation above
	if second[0] != 1 || second[1] != 2 || second[2] != 3 {
		t.Fatalf("cache poisoned by miss-path mutation: second Get = %v", second)
	}
	second[2] = -7

	third := get() // hit again: unaffected by the hit-path mutation too
	if third[0] != 1 || third[1] != 2 || third[2] != 3 {
		t.Fatalf("cache poisoned by hit-path mutation: third Get = %v", third)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1 (clones must come from the cache, not recomputation)", calls)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss", st)
	}
}
