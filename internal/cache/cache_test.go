package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestKeyStability pins the key derivation: the same inputs must hash to
// the same key within a process, across processes, and across releases.
// The literal below is part of the cache's on-disk compatibility surface;
// if the encoding changes intentionally, update it (old disk entries are
// then unreachable, which is the designed invalidation path).
func TestKeyStability(t *testing.T) {
	mk := func() Key {
		return NewHasher("stage").
			String("source text").
			Int(-3).
			Uint64(7).
			Uint32(0x0040_0000).
			Float64(0.9).
			Bool(true).
			Bytes([]byte{1, 2, 3}).
			Words([]uint32{0xdeadbeef, 0}).
			Sum()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("same inputs, different keys: %s vs %s", a, b)
	}
	const pinned = "40e846754eb13ba607856324ca9bbf65dcdbac5e7642c0c7b854d728bffd578c"
	if a.String() != pinned {
		t.Errorf("key derivation changed: got %s, pinned %s", a, pinned)
	}
}

// TestKeyInvalidation is table-driven over single-component perturbations:
// changing any one input byte (or the stage name, or the write order) must
// change the key.
func TestKeyInvalidation(t *testing.T) {
	base := func() *Hasher { return NewHasher("compile") }
	baseKey := base().String("int main(){}").Int(2).Bool(false).Sum()

	cases := []struct {
		name string
		key  Key
	}{
		{"stage differs", NewHasher("lift").String("int main(){}").Int(2).Bool(false).Sum()},
		{"one source byte differs", base().String("int main(){ }").Int(2).Bool(false).Sum()},
		{"option int differs", base().String("int main(){}").Int(3).Bool(false).Sum()},
		{"option flag differs", base().String("int main(){}").Int(2).Bool(true).Sum()},
		{"field order differs", base().Int(2).String("int main(){}").Bool(false).Sum()},
		{"concatenation shifted", base().String("int main(){}2").Int(0).Bool(false).Sum()},
		{"missing trailing field", base().String("int main(){}").Int(2).Sum()},
	}
	for _, tc := range cases {
		if tc.key == baseKey {
			t.Errorf("%s: key did not change", tc.name)
		}
	}
}

// TestLRUEvictionOrder checks both eviction order and that Get refreshes
// recency.
func TestLRUEvictionOrder(t *testing.T) {
	key := func(i int) Key { return NewHasher("t").Int(int64(i)).Sum() }
	c := New[int](2)
	c.Put(key(1), 1)
	c.Put(key(2), 2)
	if _, ok := c.Get(key(1)); !ok { // refresh 1; 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.Put(key(3), 3) // evicts 2
	if _, ok := c.Get(key(2)); ok {
		t.Error("entry 2 survived eviction; LRU order wrong")
	}
	for _, i := range []int{1, 3} {
		if v, ok := c.Get(key(i)); !ok || v != i {
			t.Errorf("entry %d lost (ok=%v v=%d)", i, ok, v)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
}

// TestGetOrCompute covers the miss-compute-hit cycle and error paths.
func TestGetOrCompute(t *testing.T) {
	c := New[string](8)
	k := NewHasher("t").String("k").Sum()
	calls := 0
	get := func() (string, error) { calls++; return "v", nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrCompute(k, get)
		if err != nil || v != "v" {
			t.Fatalf("round %d: %q, %v", i, v, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	// Errors are not cached: the next call recomputes.
	ke := NewHasher("t").String("err").Sum()
	boom := errors.New("boom")
	if _, err := c.GetOrCompute(ke, func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("error not propagated: %v", err)
	}
	if v, err := c.GetOrCompute(ke, func() (string, error) { return "ok", nil }); err != nil || v != "ok" {
		t.Fatalf("error was cached: %q, %v", v, err)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 3 {
		t.Errorf("stats = %+v, want 2 hits / 3 misses", s)
	}
}

// TestConcurrentGetPut hammers a small cache from many goroutines; run
// under -race this is the data-race check for the LRU internals.
func TestConcurrentGetPut(t *testing.T) {
	c := New[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := NewHasher("t").Int(int64(i % 32)).Sum()
				switch i % 3 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				default:
					c.GetOrCompute(k, func() (int, error) { return i, nil })
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 16 {
		t.Errorf("capacity exceeded: %d entries", n)
	}
}

// TestInflightCoalescing checks that concurrent GetOrCompute calls for
// one key run the compute function exactly once and all share the result.
func TestInflightCoalescing(t *testing.T) {
	c := New[int](4)
	k := NewHasher("t").String("slow").Sum()
	var computes atomic.Int32
	gate := make(chan struct{})
	const waiters = 6
	results := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrCompute(k, func() (int, error) {
				computes.Add(1)
				<-gate // hold every racer in the in-flight window
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	close(gate)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 42 {
			t.Errorf("waiter got %d, want 42", v)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
}

// TestNilCacheSafe checks the nil-cache contract used by optional wiring.
func TestNilCacheSafe(t *testing.T) {
	var c *Cache[int]
	k := NewHasher("t").Sum()
	if _, ok := c.Get(k); ok {
		t.Error("nil cache hit")
	}
	c.Put(k, 1)
	v, err := c.GetOrCompute(k, func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Errorf("nil GetOrCompute = %d, %v", v, err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil stats = %+v", s)
	}
}

// TestDiskStoreRoundTrip checks the write-through layer: a second cache
// sharing the directory serves a cold Get from disk.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	codec := Codec[string]{
		Marshal:   func(s string) ([]byte, error) { return []byte(s), nil },
		Unmarshal: func(b []byte) (string, error) { return string(b), nil },
	}
	k := NewHasher("t").String("persist").Sum()

	warm := New[string](4).WithDisk(store, codec)
	warm.Put(k, "hello")

	cold := New[string](4).WithDisk(store, codec)
	v, ok := cold.Get(k)
	if !ok || v != "hello" {
		t.Fatalf("disk miss: %q, %v", v, ok)
	}
	s := cold.Stats()
	if s.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", s.DiskHits)
	}
	// A corrupt blob must fall through to a miss, not an error.
	k2 := NewHasher("t").String("corrupt").Sum()
	bad := Codec[string]{
		Marshal:   codec.Marshal,
		Unmarshal: func([]byte) (string, error) { return "", fmt.Errorf("corrupt") },
	}
	store.Put(k2, []byte("junk"))
	c3 := New[string](4).WithDisk(store, bad)
	if _, ok := c3.Get(k2); ok {
		t.Error("corrupt blob served")
	}
}

// lengthCodec is a codec whose unmarshal actually validates the blob: a
// 4-byte length prefix followed by the payload. Truncating the file makes
// decode fail, the way a torn write corrupts a real .sbc entry.
var lengthCodec = Codec[string]{
	Marshal: func(s string) ([]byte, error) {
		b := make([]byte, 4+len(s))
		binary.LittleEndian.PutUint32(b, uint32(len(s)))
		copy(b[4:], s)
		return b, nil
	},
	Unmarshal: func(b []byte) (string, error) {
		if len(b) < 4 {
			return "", fmt.Errorf("short blob: %d bytes", len(b))
		}
		n := binary.LittleEndian.Uint32(b)
		if uint32(len(b)-4) != n {
			return "", fmt.Errorf("truncated blob: have %d want %d", len(b)-4, n)
		}
		return string(b[4:]), nil
	},
}

// TestCorruptBlobRecovery is the regression test for the silent-corruption
// bug: a truncated .sbc blob must be treated as a miss (never served), be
// counted in the Corrupt stat, be deleted from disk, and be rewritten by
// the recompute — so a warm rerun over a damaged cache directory produces
// exactly the cold run's results.
func TestCorruptBlobRecovery(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewHasher("sim").String("fir").Int(2).Sum()
	compute := func() (string, error) { return "profile-data", nil }

	// Cold run: compute and persist.
	cold := New[string](4).WithDisk(store, lengthCodec)
	coldVal, err := cold.GetOrCompute(k, compute)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the blob on disk, as a torn write or partial copy would.
	blobPath := filepath.Join(dir, k.String()+".sbc")
	data, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatalf("blob not persisted: %v", err)
	}
	if err := os.WriteFile(blobPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Warm rerun in a fresh process (new cache, same directory): the
	// corrupt blob must not be served; the recompute must match cold.
	warm := New[string](4).WithDisk(store, lengthCodec)
	warmVal, out, err := warm.GetOrComputeOutcome(k, compute)
	if err != nil {
		t.Fatal(err)
	}
	if warmVal != coldVal {
		t.Errorf("warm value %q != cold value %q", warmVal, coldVal)
	}
	if out != OutcomeCorrupt {
		t.Errorf("outcome = %v, want corrupt", out)
	}
	s := warm.Stats()
	if s.Corrupt != 1 {
		t.Errorf("corrupt stat = %d, want 1", s.Corrupt)
	}
	if s.Misses != 1 || s.Hits != 0 || s.DiskHits != 0 {
		t.Errorf("stats = %+v, want exactly one miss", s)
	}

	// The recompute must have replaced the damaged blob with a good one:
	// a third cold cache now serves it from disk.
	third := New[string](4).WithDisk(store, lengthCodec)
	v, out, err := third.GetOrComputeOutcome(k, func() (string, error) {
		t.Error("recompute ran; corrupt blob was not rewritten")
		return "", nil
	})
	if err != nil || v != coldVal {
		t.Fatalf("disk reread = %q, %v", v, err)
	}
	if out != OutcomeDisk {
		t.Errorf("outcome = %v, want disk", out)
	}
}

// TestCorruptBlobDeleted checks the delete half in isolation: after the
// corrupt lookup the damaged file is gone even if nothing recomputes (a
// plain Get), so later runs do not trip over it again.
func TestCorruptBlobDeleted(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewHasher("t").String("victim").Sum()
	if err := store.Put(k, []byte{1, 2}); err != nil { // too short for lengthCodec
		t.Fatal(err)
	}
	c := New[string](4).WithDisk(store, lengthCodec)
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt blob served")
	}
	if _, err := os.Stat(filepath.Join(dir, k.String()+".sbc")); !os.IsNotExist(err) {
		t.Errorf("corrupt blob still on disk (err=%v)", err)
	}
	if got := c.Stats().Corrupt; got != 1 {
		t.Errorf("corrupt stat = %d, want 1", got)
	}
}

// stringCodec is the trivial test codec.
var stringCodec = Codec[string]{
	Marshal:   func(s string) ([]byte, error) { return []byte(s), nil },
	Unmarshal: func(b []byte) (string, error) { return string(b), nil },
}

// TestCacheTierLatencies checks that disk probes — the miss that found
// nothing and the cold read that served a blob — feed the disk-read
// latency histogram, and that a memory-only cache reports none.
func TestCacheTierLatencies(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewHasher("t").String("lat").Sum()
	c := New[string](8).WithDisk(store, stringCodec)
	if _, err := c.GetOrCompute(k, func() (string, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}
	snap, ok := c.DiskLatency()
	if !ok || snap.Count != 1 {
		t.Fatalf("miss probe: latency %+v, ok %v; want one sample", snap, ok)
	}

	cold := New[string](8).WithDisk(store, stringCodec)
	if v, out, err := cold.GetOrComputeOutcome(k, nil); err != nil || v != "v" || out != OutcomeDisk {
		t.Fatalf("cold read = %q, %v, %v", v, out, err)
	}
	if snap, _ := cold.DiskLatency(); snap.Count != 1 {
		t.Errorf("disk read: %d latency samples, want 1", snap.Count)
	}

	if _, ok := New[string](8).DiskLatency(); ok {
		t.Error("memory-only cache reports disk latencies")
	}
}

// TestConcurrentTieredCache hammers one disk store from several caches
// at once (as concurrent processes sharing a -cachedir would); under
// -race this is the concurrency audit for the disk path: inflight
// exclusion around the disk probe, write-back outside the lock, and
// atomic blob replacement. A final cold cache must then serve every key
// from disk.
func TestConcurrentTieredCache(t *testing.T) {
	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := New[string](16).WithDisk(store, stringCodec)
			for i := 0; i < 40; i++ {
				k := NewHasher("t").Int(int64(i % 8)).Sum()
				want := fmt.Sprintf("v%d", i%8)
				v, err := c.GetOrCompute(k, func() (string, error) { return want, nil })
				if err != nil || v != want {
					t.Errorf("goroutine %d: %q, %v", g, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	cold := New[string](16).WithDisk(store, stringCodec)
	for i := 0; i < 8; i++ {
		k := NewHasher("t").Int(int64(i)).Sum()
		v, out, err := cold.GetOrComputeOutcome(k, func() (string, error) {
			t.Errorf("key %d recomputed; not on disk", i)
			return "", nil
		})
		if err != nil || v != fmt.Sprintf("v%d", i) || out != OutcomeDisk {
			t.Errorf("key %d: %q, %v, %v", i, v, out, err)
		}
	}
	if s := cold.Stats(); s.DiskHits != 8 || s.Corrupt != 0 {
		t.Errorf("cold stats = %+v, want 8 clean disk hits", s)
	}
}
