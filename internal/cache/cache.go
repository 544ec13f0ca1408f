// Package cache provides content-addressed memoization for the
// partitioning pipeline. Every stage of the flow — MicroC compilation,
// profiling simulation, decompilation + decompiler optimization, and
// behavioral synthesis — is a pure function of its inputs, so each stage
// result can be keyed by a stable hash of exactly those inputs and reused
// across experiment sweeps (the O-level sweep recompiles the same four
// sources sixteen times; the area sweep re-lifts the same twenty binaries
// eleven times).
//
// A Cache is a bounded in-memory LRU with per-key in-flight coalescing
// (concurrent GetOrCompute calls for the same key compute once), hit /
// miss / eviction counters, and an optional bounded disk store (see
// disk.go) for values that have a byte codec; serialized blobs carry a
// checksum header (see blob.go). Invalidation is purely structural: a key
// covers every byte of stage input, so changing any input byte produces a
// different key and the stale entry simply ages out of the LRU.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"binpart/internal/obs/hist"
)

// Key is a 256-bit content address of one stage's inputs.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (also the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates stage inputs into a Key. Every write is tagged with
// a type byte and, for variable-length data, a length prefix, so distinct
// input sequences cannot collide by concatenation ("ab"+"c" vs "a"+"bc").
type Hasher struct {
	h   hash.Hash
	buf [10]byte
}

// NewHasher starts a key for the named stage. The stage name separates
// key spaces: a compile key and a lift key over identical bytes differ.
func NewHasher(stage string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.String(stage)
	return h
}

func (h *Hasher) tag(t byte, n int) {
	h.buf[0] = t
	binary.LittleEndian.PutUint64(h.buf[1:9], uint64(n))
	h.h.Write(h.buf[:9])
}

// Bytes hashes a variable-length byte slice.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.tag('b', len(b))
	h.h.Write(b)
	return h
}

// String hashes a string.
func (h *Hasher) String(s string) *Hasher {
	h.tag('s', len(s))
	h.h.Write([]byte(s))
	return h
}

// Int hashes a signed integer.
func (h *Hasher) Int(v int64) *Hasher { return h.Uint64(uint64(v)) }

// Uint64 hashes an unsigned integer.
func (h *Hasher) Uint64(v uint64) *Hasher {
	h.buf[0] = 'u'
	binary.LittleEndian.PutUint64(h.buf[1:9], v)
	h.h.Write(h.buf[:9])
	return h
}

// Uint32 hashes a 32-bit word (addresses, machine words).
func (h *Hasher) Uint32(v uint32) *Hasher { return h.Uint64(uint64(v)) }

// Float64 hashes a float by bit pattern.
func (h *Hasher) Float64(v float64) *Hasher {
	h.buf[0] = 'f'
	binary.LittleEndian.PutUint64(h.buf[1:9], math.Float64bits(v))
	h.h.Write(h.buf[:9])
	return h
}

// Bool hashes a flag.
func (h *Hasher) Bool(v bool) *Hasher {
	b := byte(0)
	if v {
		b = 1
	}
	h.buf[0] = 't'
	h.buf[1] = b
	h.h.Write(h.buf[:2])
	return h
}

// Words hashes a machine-word slice (text sections) without copying into
// an intermediate buffer per element.
func (h *Hasher) Words(ws []uint32) *Hasher {
	h.tag('w', len(ws))
	var tmp [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(tmp[:], w)
		h.h.Write(tmp[:])
	}
	return h
}

// Sum finalizes the key. The Hasher must not be used afterwards.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// Stats is a point-in-time counter snapshot. The aggregate Hits counter
// includes every served lookup, memory or disk, so the per-layer
// accounting reconciles exactly: Hits = memory hits + Waits + DiskHits,
// and Hits + Misses = total lookups (Misses already includes Corrupt
// recomputes).
type Stats struct {
	Hits      uint64 `json:"hits"`    // served lookups from memory or disk, including waits
	Misses    uint64 `json:"misses"`  // full computes, including recomputes after a corrupt blob
	Evictions uint64 `json:"evict"`   // LRU entries dropped at capacity
	DiskHits  uint64 `json:"disk"`    // misses served from the disk store
	Waits     uint64 `json:"waits"`   // GetOrCompute calls that blocked on another caller's in-flight compute
	Corrupt   uint64 `json:"corrupt"` // disk blobs that failed checksum or decode (deleted, treated as misses)
	Entries   int    `json:"entries"` // current in-memory entry count
}

// Outcome classifies how one cache lookup was served. It is the per-call
// counterpart of the aggregate Stats counters: observability spans record
// an Outcome per stage execution, and summing span outcomes per stage
// reconciles with the stage cache's Stats (hits = hit + wait + disk,
// misses = miss + corrupt).
type Outcome uint8

const (
	// OutcomeNone marks uncached work: no cache was attached, so the
	// value was computed directly and no counter moved.
	OutcomeNone Outcome = iota
	// OutcomeHit is a memory hit.
	OutcomeHit
	// OutcomeMiss is a full compute.
	OutcomeMiss
	// OutcomeWait is a coalesced wait on another caller's in-flight
	// compute (counted as a hit in Stats, plus the Waits counter).
	OutcomeWait
	// OutcomeDisk is a memory miss served from the disk store.
	OutcomeDisk
	// OutcomeCorrupt is a disk blob that failed checksum or decode: the
	// blob was deleted and the value recomputed (a miss in Stats, plus
	// Corrupt).
	OutcomeCorrupt
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeWait:
		return "wait"
	case OutcomeDisk:
		return "disk"
	case OutcomeCorrupt:
		return "corrupt"
	}
	return ""
}

type entry[V any] struct {
	key Key
	val V
}

type inflightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a bounded, concurrency-safe, content-addressed LRU.
// A nil *Cache is valid and caches nothing: Get always misses, Put is a
// no-op, and GetOrCompute always computes. That lets call sites thread an
// optional cache without branching.
//
// The hit path takes only a read lock: counters are atomic and recency
// updates are buffered rather than applied in place, so a warm sweep's
// workers never serialize on list bookkeeping. Buffered promotions are
// applied, oldest first, under the next write lock — before any insert or
// eviction — which keeps eviction order identical to an LRU that promotes
// immediately (as the single-threaded eviction tests require).
type Cache[V any] struct {
	capacity int

	mu       sync.RWMutex
	ll       *list.List               // front = most recently used
	items    map[Key]*list.Element    // key -> *entry
	inflight map[Key]*inflightCall[V] // keys being computed right now

	// pending buffers hit promotions recorded under the read lock. When
	// the buffer is full the note is dropped: recency degrades but
	// correctness does not.
	pending chan Key

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	diskHits  atomic.Uint64
	waits     atomic.Uint64
	corrupt   atomic.Uint64

	// disk is the optional write-through store below the typed memory
	// LRU; codec serializes values for it. Both are set once during
	// wiring, before concurrent use. diskLat records every disk read
	// (alloc-free, so it sits on the miss path unconditionally).
	disk    *DiskStore
	codec   Codec[V]
	diskLat hist.Histogram
}

// New creates a cache bounded to capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*inflightCall[V]),
		pending:  make(chan Key, 1024),
	}
}

// WithDisk attaches a write-through disk store: Put persists entries via
// the codec, and a memory miss consults the store before recomputing.
// Call during wiring, before the cache sees concurrent use.
func (c *Cache[V]) WithDisk(d *DiskStore, codec Codec[V]) *Cache[V] {
	if c == nil || d == nil {
		return c
	}
	c.disk = d
	c.codec = codec
	return c
}

// DiskLatency snapshots the disk-read latency histogram. ok is false
// (and the cache is memory only) when no disk store is attached.
// Nil-safe.
func (c *Cache[V]) DiskLatency() (snap hist.Snapshot, ok bool) {
	if c == nil || c.disk == nil {
		return hist.Snapshot{}, false
	}
	return c.diskLat.Snapshot(), true
}

// Get returns the cached value for k, consulting memory then the disk
// store. Disk I/O runs outside the cache lock.
func (c *Cache[V]) Get(k Key) (V, bool) {
	v, _, ok := c.GetOutcome(k)
	return v, ok
}

// GetOutcome is Get reporting which layer served the lookup (OutcomeMiss
// or OutcomeCorrupt when it missed). Callers that probe, batch the
// misses elsewhere, and Put the results back — the corpus harness's
// reference-simulation phase — use it to emit one span per probe, so
// span totals still reconcile with the cache counters.
func (c *Cache[V]) GetOutcome(k Key) (V, Outcome, bool) {
	var zero V
	if c == nil {
		return zero, OutcomeNone, false
	}
	if v, ok := c.fastGet(k); ok {
		return v, OutcomeHit, true
	}
	c.mu.Lock()
	v, ok := c.memLocked(k)
	c.mu.Unlock()
	if ok {
		return v, OutcomeHit, true
	}
	v, out := c.readDisk(k)
	if out == OutcomeDisk {
		c.mu.Lock()
		c.drainPendingLocked()
		c.insertLocked(k, v)
		c.mu.Unlock()
		return v, out, true
	}
	c.misses.Add(1)
	return zero, out, false
}

// fastGet is the contention-free hit path: a read lock, an atomic hit
// count, and a buffered recency note. The list is only mutated under the
// write lock, so concurrent readers are safe.
func (c *Cache[V]) fastGet(k Key) (V, bool) {
	var v V
	c.mu.RLock()
	e, ok := c.items[k]
	if ok {
		v = e.Value.(*entry[V]).val
	}
	c.mu.RUnlock()
	if !ok {
		return v, false
	}
	c.hits.Add(1)
	select {
	case c.pending <- k:
	default:
	}
	return v, true
}

// drainPendingLocked applies buffered hit promotions in arrival order.
// Every write-lock holder drains before inserting or evicting.
func (c *Cache[V]) drainPendingLocked() {
	for {
		select {
		case k := <-c.pending:
			if e, ok := c.items[k]; ok {
				c.ll.MoveToFront(e)
			}
		default:
			return
		}
	}
}

// memLocked checks the memory layer, recording a hit but never a miss,
// so callers decide how a miss is counted. Callers hold the write lock.
func (c *Cache[V]) memLocked(k Key) (V, bool) {
	c.drainPendingLocked()
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		c.hits.Add(1)
		return e.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// readDisk probes the disk store for k: OutcomeDisk with the decoded
// value (counted as a disk hit), OutcomeMiss when there is no store or
// no blob, or OutcomeCorrupt when the blob failed its checksum or
// decode. A corrupt blob would, were it returned, fail the caller (or
// poison the memory layer) on a value the store cannot vouch for, so it
// is counted and deleted — the caller's recompute rewrites a good one.
// The miss itself is counted by the caller.
func (c *Cache[V]) readDisk(k Key) (V, Outcome) {
	var zero V
	if c.disk == nil {
		return zero, OutcomeMiss
	}
	start := time.Now()
	blob, ok := c.disk.Get(k)
	c.diskLat.Record(time.Since(start))
	if !ok {
		return zero, OutcomeMiss
	}
	if payload, err := Open(blob); err == nil {
		if v, err := c.codec.Unmarshal(payload); err == nil {
			c.hits.Add(1)
			c.diskHits.Add(1)
			return v, OutcomeDisk
		}
	}
	c.corrupt.Add(1)
	c.disk.Delete(k) //nolint:errcheck // best effort, like Put
	return zero, OutcomeCorrupt
}

// writeDisk seals v and writes it to the disk store. Best effort, and
// outside any lock: blobs are content addressed, so a racing double
// write is benign.
func (c *Cache[V]) writeDisk(k Key, v V) {
	if c.disk == nil {
		return
	}
	payload, err := c.codec.Marshal(v)
	if err != nil {
		return
	}
	c.disk.Put(k, Seal(payload)) //nolint:errcheck // best effort; memory stays primary
}

// Put inserts (or refreshes) a value, evicting the least recently used
// entry when over capacity, and writes through to the disk store.
func (c *Cache[V]) Put(k Key, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.drainPendingLocked()
	c.insertLocked(k, v)
	c.mu.Unlock()
	c.writeDisk(k, v)
}

// Delete removes k from the memory layer and the disk store.
func (c *Cache[V]) Delete(k Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.drainPendingLocked()
	if e, ok := c.items[k]; ok {
		c.ll.Remove(e)
		delete(c.items, k)
	}
	c.mu.Unlock()
	c.disk.Delete(k) //nolint:errcheck // best effort
}

// insertLocked updates the memory layer only; disk write-through happens
// outside the lock (see Put and GetOrComputeOutcome).
func (c *Cache[V]) insertLocked(k Key, v V) {
	if e, ok := c.items[k]; ok {
		e.Value.(*entry[V]).val = v
		c.ll.MoveToFront(e)
		return
	}
	c.items[k] = c.ll.PushFront(&entry[V]{key: k, val: v})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry[V]).key)
		c.evictions.Add(1)
	}
}

// GetOrCompute returns the value for k, computing it with fn on a miss.
// Concurrent calls for the same key coalesce: one caller computes, the
// rest wait and share the result (a waiter counts as a hit, and also as a
// wait — the contention-visible counter). Errors are not cached.
func (c *Cache[V]) GetOrCompute(k Key, fn func() (V, error)) (V, error) {
	v, _, err := c.GetOrComputeOutcome(k, fn)
	return v, err
}

// GetOrComputeOutcome is GetOrCompute reporting how the call was served,
// so observability spans can attribute cache behavior per stage execution
// without re-deriving it from counter deltas.
//
// Disk reads happen outside the cache lock: the caller first registers
// itself in the inflight map, which gives it per-key exclusion, then
// probes the disk store. Later same-key callers coalesce on the inflight
// entry as waits — including callers that would have hit the disk — so
// a slow disk never blocks unrelated keys. The inflight entry is
// released as soon as the value is known, before the disk write-back,
// so waiters resume immediately.
func (c *Cache[V]) GetOrComputeOutcome(k Key, fn func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := fn()
		return v, OutcomeNone, err
	}
	if v, ok := c.fastGet(k); ok {
		return v, OutcomeHit, nil
	}
	c.mu.Lock()
	if v, ok := c.memLocked(k); ok {
		c.mu.Unlock()
		return v, OutcomeHit, nil
	}
	if fl, ok := c.inflight[k]; ok {
		c.hits.Add(1)
		c.waits.Add(1)
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			var zero V
			return zero, OutcomeWait, fl.err
		}
		return fl.val, OutcomeWait, nil
	}
	fl := &inflightCall[V]{done: make(chan struct{})}
	c.inflight[k] = fl
	c.mu.Unlock()

	var out Outcome
	fl.val, out = c.readDisk(k)
	if out != OutcomeDisk {
		fl.val, fl.err = fn()
		c.misses.Add(1)
	}
	close(fl.done)
	if out != OutcomeDisk && fl.err == nil {
		c.writeDisk(k, fl.val)
	}

	c.mu.Lock()
	delete(c.inflight, k)
	if fl.err == nil {
		c.drainPendingLocked()
		c.insertLocked(k, fl.val)
	}
	c.mu.Unlock()
	return fl.val, out, fl.err
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		DiskHits:  c.diskHits.Load(),
		Waits:     c.waits.Load(),
		Corrupt:   c.corrupt.Load(),
	}
	c.mu.RLock()
	s.Entries = c.ll.Len()
	c.mu.RUnlock()
	return s
}
