package bench

import (
	"errors"
	"testing"

	"binpart/internal/decompile"
	"binpart/internal/sim"
)

func TestSuiteShape(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("suite has %d benchmarks, want 20 (as in the paper)", len(all))
	}
	suites := map[string]int{}
	failing := 0
	optSweep := 0
	names := map[string]bool{}
	for _, b := range all {
		if names[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		names[b.Name] = true
		suites[b.Suite]++
		if b.FailsRecovery {
			failing++
		}
		if b.OptSweep {
			optSweep++
		}
		if b.KernelFunc == "" || b.Description == "" {
			t.Errorf("%s: missing metadata", b.Name)
		}
	}
	if failing != 2 {
		t.Errorf("%d benchmarks marked as recovery failures, want 2 (the paper's EEMBC pair)", failing)
	}
	if optSweep != 4 {
		t.Errorf("%d benchmarks in the optimization sweep, want 4", optSweep)
	}
	for _, s := range []string{"EEMBC", "PowerStone", "MediaBench", "Own"} {
		if suites[s] == 0 {
			t.Errorf("no benchmarks from suite %s", s)
		}
	}
	if suites["EEMBC"] < 2 {
		t.Error("need at least the two failing EEMBC benchmarks")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("crc"); !ok {
		t.Error("crc not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	if got := len(OptSweepSet()); got != 4 {
		t.Errorf("OptSweepSet has %d entries", got)
	}
}

// TestCompileKeyMemoMatchesRecipe pins the memoized compile keys to the
// recipe: every suite benchmark at -O0..-O3 gets exactly the key
// CompileKey(source, level) hashes, and a source the suite does not hold
// — under a suite name or its own, or at a level outside -O0..-O3 —
// falls through to the recipe instead of a stale memo.
func TestCompileKeyMemoMatchesRecipe(t *testing.T) {
	for _, b := range All() {
		for lvl := -1; lvl <= 4; lvl++ {
			if got, want := b.CompileKey(lvl), CompileKey(b.Source, lvl); got != want {
				t.Errorf("%s -O%d: memoized key %s != recipe %s", b.Name, lvl, got, want)
			}
		}
	}
	crc, _ := ByName("crc")
	edited := crc
	edited.Source += "\n"
	if got, want := edited.CompileKey(1), CompileKey(edited.Source, 1); got != want || got == crc.CompileKey(1) {
		t.Errorf("edited crc source reused the suite memo: %s", got)
	}
	other := Benchmark{Name: "generated", Source: crc.Source}
	if got, want := other.CompileKey(2), CompileKey(crc.Source, 2); got != want {
		t.Errorf("non-suite name: key %s != recipe %s", got, want)
	}
}

// TestAllBenchmarksRunAtAllLevels is the suite's core validation: every
// benchmark compiles at O0..O3, runs to completion, and produces the SAME
// checksum at every level (the compiler levels are semantics-preserving).
func TestAllBenchmarksRunAtAllLevels(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			var want int32
			for lvl := 0; lvl <= 3; lvl++ {
				img, err := b.Compile(lvl)
				if err != nil {
					t.Fatalf("O%d: %v", lvl, err)
				}
				res, err := sim.Execute(img, sim.DefaultConfig())
				if err != nil {
					t.Fatalf("O%d: %v", lvl, err)
				}
				if lvl == 0 {
					want = res.ExitCode
					if res.Steps < 10_000 {
						t.Errorf("suspiciously short run: %d instructions", res.Steps)
					}
				} else if res.ExitCode != want {
					t.Errorf("O%d checksum %d != O0 checksum %d", lvl, res.ExitCode, want)
				}
			}
		})
	}
}

// TestRecoveryExpectations checks that exactly the marked benchmarks fail
// kernel CDFG recovery, and fail for the documented reason.
func TestRecoveryExpectations(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			img, err := b.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := decompile.Decompile(img)
			if err != nil {
				t.Fatal(err)
			}
			ferr, failed := res.Failed[b.KernelFunc]
			if b.FailsRecovery {
				if !failed {
					t.Errorf("kernel %s recovered despite jump table", b.KernelFunc)
				} else if !errors.Is(ferr, decompile.ErrIndirectJump) {
					t.Errorf("failure reason = %v, want indirect jump", ferr)
				}
				return
			}
			if failed {
				t.Errorf("kernel %s failed recovery: %v", b.KernelFunc, ferr)
			}
			if res.Func(b.KernelFunc) == nil {
				t.Errorf("kernel %s missing from recovered functions", b.KernelFunc)
			}
		})
	}
}

// TestKernelsDominateRuntime verifies the 90-10 premise: the kernel
// function accounts for the bulk of each benchmark's instruction count.
func TestKernelsDominateRuntime(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			img, err := b.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig()
			cfg.Profile = true
			res, err := sim.Execute(img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sym, ok := img.Lookup(b.KernelFunc)
			if !ok {
				t.Fatalf("no symbol for %s", b.KernelFunc)
			}
			var inKernel, total uint64
			for pc, n := range res.Profile.InstCount {
				total += n
				if pc >= sym.Addr && pc < sym.Addr+sym.Size {
					inKernel += n
				}
			}
			frac := float64(inKernel) / float64(total)
			if frac < 0.5 {
				t.Errorf("kernel covers only %.0f%% of execution; the 90-10 premise needs a dominant kernel", 100*frac)
			}
		})
	}
}
