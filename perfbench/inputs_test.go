package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestSeedFixesSuiteJobs: one seed always yields the same program
// sequence; another seed changes the generated programs but not the
// suite binaries ahead of them.
func TestSeedFixesSuiteJobs(t *testing.T) {
	a, b := suiteColdJobs(7, 40), suiteColdJobs(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave two different suite-cold job lists")
	}
	if len(a) != 80+40 {
		t.Fatalf("%d jobs, want 80 suite + 40 generated", len(a))
	}
	c := suiteColdJobs(8, 40)
	if !reflect.DeepEqual(a[:80], c[:80]) {
		t.Error("the suite binaries depend on the seed")
	}
	if reflect.DeepEqual(a[80:], c[80:]) {
		t.Error("seeds 7 and 8 drew the same generated programs")
	}
	shapes := map[string]int{}
	for _, j := range a[80:] {
		shapes[strings.Split(j.Name, "-")[1]]++
	}
	for _, pc := range progenConfigs {
		if shapes[pc.name] != 10 {
			t.Errorf("%d %s programs in 40 draws, want 10", shapes[pc.name], pc.name)
		}
	}
}

// TestSeedFixesRequests: one seed always yields the same request bodies
// and serve-mixed schedule, uploads included.
func TestSeedFixesRequests(t *testing.T) {
	if !reflect.DeepEqual(warmRequests(7, 512), warmRequests(7, 512)) {
		t.Fatal("seed 7 gave two different warm request sequences")
	}
	if reflect.DeepEqual(warmRequests(7, 512), warmRequests(8, 512)) {
		t.Error("seeds 7 and 8 gave the same warm request sequence")
	}
	ops1, up1 := mixedSchedule(7, 4000)
	ops2, up2 := mixedSchedule(7, 4000)
	if !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(up1, up2) {
		t.Fatal("seed 7 gave two different serve-mixed schedules")
	}
	kinds := map[int]int{}
	next := 0
	for _, op := range ops1 {
		kinds[op.Kind]++
		if op.Kind == opUpload {
			if op.Upload != next {
				t.Fatalf("upload %d sent as #%d: each upload must be sent once, in order", op.Upload, next)
			}
			next++
		}
	}
	if next != len(up1) {
		t.Errorf("%d uploads scheduled, %d programs drawn", next, len(up1))
	}
	for kind, lo := range map[int]int{opPartition: 3000, opSweep: 300, opUpload: 300} {
		if kinds[kind] < lo {
			t.Errorf("kind %d drawn %d times in 4000, want at least %d", kind, kinds[kind], lo)
		}
	}
}

// TestMaskReport: only the measured partition wall time is masked.
func TestMaskReport(t *testing.T) {
	in := "platform: x\n\npartition (90-10, 1.234µs):\n  application speedup: 2.00x\n"
	want := "platform: x\n\npartition (90-10, <time>):\n  application speedup: 2.00x\n"
	if got := maskReport(in); got != want {
		t.Errorf("maskReport:\n%q\nwant\n%q", got, want)
	}
}
