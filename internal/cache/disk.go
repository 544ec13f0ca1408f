package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Codec converts cache values to and from bytes for the disk store.
type Codec[V any] struct {
	Marshal   func(V) ([]byte, error)
	Unmarshal func([]byte) (V, error)
}

// DiskStore is a content-addressed on-disk blob store: one file per key,
// named by the key's hex form. Writes are atomic (temp file + rename), so
// concurrent processes sharing a -cachedir never observe torn entries;
// because files are content-addressed, a racing double-write is benign.
//
// An optional byte budget (OpenDiskMax) bounds the directory: when a Put
// pushes the approximate total past the budget, a background sweep
// evicts the oldest-mtime blobs until the total is back under the low
// watermark. Eviction is off the hot path and best effort — a sweep
// racing another process's Put can only delete a recomputable blob.
type DiskStore struct {
	dir      string
	maxBytes int64
	// size approximates the directory's blob bytes; Put and Delete
	// adjust it and each sweep resyncs it from a directory scan.
	size atomic.Int64
	// sweeping single-flights the background sweep.
	sweeping atomic.Bool
}

// OpenDisk opens (creating if needed) an unbounded store rooted at dir.
func OpenDisk(dir string) (*DiskStore, error) {
	return OpenDiskMax(dir, 0)
}

// OpenDiskMax opens a store rooted at dir bounded to maxBytes of blobs
// (0 means unbounded). The opening scan prices the existing contents so
// a long-lived directory is swept from the first overflowing Put.
func OpenDiskMax(dir string, maxBytes int64) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: open disk store: %w", err)
	}
	d := &DiskStore{dir: dir, maxBytes: maxBytes}
	if maxBytes > 0 {
		d.size.Store(d.scanSize())
	}
	return d, nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// MaxBytes returns the byte budget (0 when unbounded).
func (d *DiskStore) MaxBytes() int64 { return d.maxBytes }

// Size returns the approximate blob bytes currently stored. Only
// tracked on a bounded store; an unbounded store reports 0.
func (d *DiskStore) Size() int64 { return d.size.Load() }

func (d *DiskStore) path(k Key) string {
	return filepath.Join(d.dir, k.String()+".sbc")
}

// Get returns the blob stored for k.
func (d *DiskStore) Get(k Key) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	data, err := os.ReadFile(d.path(k))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Delete removes the blob stored for k; a missing blob is not an error.
// The cache uses it to drop corrupt entries so they are not retried on
// every warm run.
func (d *DiskStore) Delete(k Key) error {
	if d == nil {
		return nil
	}
	path := d.path(k)
	if d.maxBytes > 0 {
		if fi, err := os.Stat(path); err == nil {
			d.size.Add(-fi.Size())
		}
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Put stores the blob for k atomically, triggering a background sweep
// when a byte budget is set and exceeded.
func (d *DiskStore) Put(k Key, data []byte) error {
	if d == nil {
		return nil
	}
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, d.path(k)); err != nil {
		os.Remove(name)
		return err
	}
	if d.maxBytes > 0 {
		if d.size.Add(int64(len(data))) > d.maxBytes && d.sweeping.CompareAndSwap(false, true) {
			go func() {
				defer d.sweeping.Store(false)
				d.Sweep() //nolint:errcheck // best effort by design
			}()
		}
	}
	return nil
}

// sweepLowWater is the fraction of the budget a sweep evicts down to, so
// the store does not sweep again on the very next Put.
const sweepLowWater = 0.9

// Sweep synchronously evicts the oldest-mtime blobs until the store is
// under its low watermark (90% of the budget), returning how many blobs
// were evicted and how many bytes were freed. The directory scan also
// resyncs the approximate size counter, so drift from other processes
// sharing the directory is corrected on every sweep. A no-op on an
// unbounded store. Put runs it in the background; tests call it
// directly.
func (d *DiskStore) Sweep() (evicted int, freed int64, err error) {
	if d == nil || d.maxBytes <= 0 {
		return 0, 0, nil
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, 0, err
	}
	type blob struct {
		name  string
		size  int64
		mtime int64
	}
	var blobs []blob
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".sbc") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // deleted under us
		}
		blobs = append(blobs, blob{name: e.Name(), size: fi.Size(), mtime: fi.ModTime().UnixNano()})
		total += fi.Size()
	}
	sort.Slice(blobs, func(i, j int) bool {
		if blobs[i].mtime != blobs[j].mtime {
			return blobs[i].mtime < blobs[j].mtime
		}
		return blobs[i].name < blobs[j].name
	})
	target := int64(float64(d.maxBytes) * sweepLowWater)
	for _, b := range blobs {
		if total <= target {
			break
		}
		if rmErr := os.Remove(filepath.Join(d.dir, b.name)); rmErr != nil {
			if os.IsNotExist(rmErr) {
				total -= b.size
			}
			continue
		}
		total -= b.size
		evicted++
		freed += b.size
	}
	d.size.Store(total)
	return evicted, freed, nil
}

// scanSize totals the directory's blob bytes.
func (d *DiskStore) scanSize() int64 {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".sbc") {
			continue
		}
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// ParseByteSize parses a human-friendly byte size: a plain integer is
// bytes; suffixes K, M, G, T (optionally followed by "B", case
// insensitive) scale by 1024. Used by the -cachedir-max flag.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	t = strings.TrimSuffix(t, "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, strings.TrimSuffix(t, "K")
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, strings.TrimSuffix(t, "M")
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, strings.TrimSuffix(t, "G")
	case strings.HasSuffix(t, "T"):
		mult, t = 1<<40, strings.TrimSuffix(t, "T")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("cache: bad byte size %q", s)
	}
	return n * mult, nil
}
