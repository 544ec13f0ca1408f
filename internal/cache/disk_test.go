package cache

import (
	"os"
	"testing"
	"time"
)

// putAged writes a blob and backdates its mtime so eviction order is
// deterministic regardless of filesystem timestamp granularity.
func putAged(t *testing.T, d *DiskStore, k Key, blob []byte, age time.Duration) {
	t.Helper()
	if err := d.Put(k, blob); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(d.path(k), when, when); err != nil {
		t.Fatal(err)
	}
}

// TestDiskSweepEvictsOldest pins the satellite-1 behavior: a bounded
// store's sweep drops the oldest-mtime blobs first, stops at the low
// watermark, and resyncs the size counter from the directory.
func TestDiskSweepEvictsOldest(t *testing.T) {
	d, err := OpenDiskMax(t.TempDir(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 300)
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = NewHasher("t").Int(int64(i)).Sum()
		// keys[0] is the oldest, keys[3] the newest.
		putAged(t, d, keys[i], blob, time.Duration(len(keys)-i)*time.Hour)
	}
	// 1200 bytes in a 1000-byte budget; the watermark is 900, so the
	// sweep must evict exactly the oldest blob (down to 900).
	d.Sweep() // synchronous; Put's background sweep may also have run
	waitFor(t, "sweep settling", func() bool { return !d.sweeping.Load() })
	if _, _, err := d.Sweep(); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(keys[0]); ok {
		t.Error("oldest blob survived the sweep")
	}
	for _, k := range keys[1:] {
		if _, ok := d.Get(k); !ok {
			t.Errorf("young blob %s evicted", k)
		}
	}
	if got := d.Size(); got != 900 {
		t.Errorf("size after sweep = %d, want 900", got)
	}
}

// TestDiskSweepTriggersOnPut checks the hot-path contract: Put itself
// never blocks on eviction, but an overflowing Put schedules the sweep
// that brings the store back under budget.
func TestDiskSweepTriggersOnPut(t *testing.T) {
	d, err := OpenDiskMax(t.TempDir(), 500)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 200)
	putAged(t, d, NewHasher("t").String("old").Sum(), blob, time.Hour)
	putAged(t, d, NewHasher("t").String("mid").Sum(), blob, time.Minute)
	if err := d.Put(NewHasher("t").String("new").Sum(), blob); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "background sweep", func() bool {
		return !d.sweeping.Load() && d.Size() <= 450 // low watermark
	})
	if _, ok := d.Get(NewHasher("t").String("new").Sum()); !ok {
		t.Error("newest blob evicted by its own sweep")
	}
}

// TestOpenDiskMaxPricesExisting ensures a reopened bounded directory
// counts what is already on disk, so the first overflowing Put sweeps.
func TestOpenDiskMaxPricesExisting(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(NewHasher("t").String("pre").Sum(), make([]byte, 400)); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDiskMax(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Size(); got != 400 {
		t.Errorf("opening scan priced %d bytes, want 400", got)
	}
}

// TestDiskDeleteAdjustsSize keeps the approximate counter honest across
// deletes on a bounded store.
func TestDiskDeleteAdjustsSize(t *testing.T) {
	d, err := OpenDiskMax(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	k := NewHasher("t").String("gone").Sum()
	if err := d.Put(k, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(k); err != nil {
		t.Fatal(err)
	}
	if got := d.Size(); got != 0 {
		t.Errorf("size after delete = %d, want 0", got)
	}
	if err := d.Delete(k); err != nil {
		t.Errorf("double delete: %v", err)
	}
}

// TestParseByteSize covers the -cachedir-max grammar.
func TestParseByteSize(t *testing.T) {
	good := map[string]int64{
		"0":     0,
		"123":   123,
		"1K":    1 << 10,
		"2k":    2 << 10,
		"64KB":  64 << 10,
		"3M":    3 << 20,
		"512mb": 512 << 20,
		"4G":    4 << 30,
		"1T":    1 << 40,
		" 10M ": 10 << 20,
		"100B":  100,
	}
	for in, want := range good {
		got, err := ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "-1", "1X", "K", "1.5G", "one"} {
		if _, err := ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q) accepted", in)
		}
	}
}

// waitFor polls cond for up to 5s; the deadline failure names what
// never happened.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
