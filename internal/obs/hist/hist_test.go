package hist

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecordAllocFree pins the hot-path contract: recording into a live
// histogram allocates nothing.
func TestRecordAllocFree(t *testing.T) {
	h := &Histogram{}
	allocs := testing.AllocsPerRun(100, func() {
		h.Record(1234 * time.Nanosecond)
		h.Record(5 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.0f per run, want 0", allocs)
	}
}

// TestBucketBounds pins the layout: a value lands in the bucket whose
// upper bound is the smallest >= the value.
func TestBucketBounds(t *testing.T) {
	cases := []struct {
		ns     uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
		if c.ns > 0 && BucketUpperNs(c.bucket) < c.ns {
			t.Errorf("BucketUpperNs(%d) = %d < sample %d", c.bucket, BucketUpperNs(c.bucket), c.ns)
		}
	}
}

// TestMergeEqualsConcatenation is the fixed-layout property: the merge
// of N histograms must be bucket-exact equal to one histogram fed the
// concatenation of every part's samples, so percentiles of merged
// snapshots are the percentiles of the combined samples.
func TestMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const workers = 5
	whole := &Histogram{}
	parts := make([]*Histogram, workers)
	for w := range parts {
		parts[w] = &Histogram{}
		n := 100 + rng.Intn(400)
		for i := 0; i < n; i++ {
			// Log-uniform samples: exercise every decade from ns to s.
			d := time.Duration(1 << uint(rng.Intn(31)))
			d += time.Duration(rng.Int63n(int64(d) + 1))
			parts[w].Record(d)
			whole.Record(d)
		}
	}

	var merged Snapshot
	for _, p := range parts {
		merged = merged.Merge(p.Snapshot())
	}
	if want := whole.Snapshot(); merged != want {
		t.Fatalf("merged snapshot differs from concatenated histogram:\n got %+v\nwant %+v", merged, want)
	}
}

// TestQuantiles checks rank resolution against a known distribution.
func TestQuantiles(t *testing.T) {
	var s Snapshot
	// 90 samples in the ~1µs bucket, 10 in the ~1ms bucket.
	for i := 0; i < 90; i++ {
		s.Observe(800 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		s.Observe(900 * time.Microsecond)
	}
	if p50 := s.QuantileNs(0.5); p50 >= uint64(time.Millisecond) {
		t.Errorf("p50 = %dns landed in the slow bucket", p50)
	}
	if p99 := s.QuantileNs(0.99); p99 < uint64(512*time.Microsecond) {
		t.Errorf("p99 = %dns missed the slow bucket", p99)
	}
	if got := (Snapshot{}).QuantileNs(0.99); got != 0 {
		t.Errorf("empty snapshot p99 = %d, want 0", got)
	}
	if us := s.QuantileUS(0.5); us < 1 {
		t.Errorf("sub-ms quantile rounded to %dus, want >= 1", us)
	}
}

// TestConcurrentRecord runs racing recorders; -race is the assertion,
// the count check just keeps the work observable.
func TestConcurrentRecord(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

// TestPromExposition checks the text format: TYPE headers once per
// family, escaped labels, summary quantiles plus _sum/_count.
func TestPromExposition(t *testing.T) {
	var b strings.Builder
	p := NewProm(&b)
	p.Counter("x_total", Label("stage", "sim"), 3)
	p.Counter("x_total", Label("stage", "lift"), 4)
	p.Gauge("y", "", 1.5)

	var s Snapshot
	s.Observe(100 * time.Microsecond)
	s.Observe(200 * time.Microsecond)
	p.Summary("lat_seconds", Labels(Label("peer", `a"b`)), s)

	out := b.String()
	if strings.Count(out, "# TYPE x_total counter") != 1 {
		t.Errorf("x_total TYPE header not emitted exactly once:\n%s", out)
	}
	for _, want := range []string{
		`x_total{stage="sim"} 3`,
		`x_total{stage="lift"} 4`,
		"y 1.5",
		`lat_seconds{peer="a\"b",quantile="0.5"}`,
		`lat_seconds_sum{peer="a\"b"}`,
		`lat_seconds_count{peer="a\"b"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	var empty strings.Builder
	NewProm(&empty).Summary("z", "", Snapshot{})
	if empty.Len() != 0 {
		t.Errorf("empty summary emitted output: %q", empty.String())
	}

	// SummaryFromStart keeps an empty family visible: NaN quantiles and
	// zero _sum/_count, typed once.
	var start strings.Builder
	NewProm(&start).SummaryFromStart("z", Label("route", "r"), Snapshot{})
	for _, want := range []string{
		"# TYPE z summary\n",
		`z{route="r",quantile="0.99"} NaN`,
		`z_sum{route="r"} 0`,
		`z_count{route="r"} 0`,
	} {
		if !strings.Contains(start.String(), want) {
			t.Errorf("empty SummaryFromStart missing %q:\n%s", want, start.String())
		}
	}
}
