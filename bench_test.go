// Benchmark harness regenerating the paper's evaluation (one benchmark
// per table/figure, per DESIGN.md's experiment index), plus per-stage
// micro-benchmarks. Each table benchmark prints its rows once and reports
// the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation.
package binpart

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/exper"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/mips"
	"binpart/internal/partition"
	"binpart/internal/progen"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

var printOnce sync.Map

func printTable(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// BenchmarkTable1MainResults regenerates the main-results table: all 20
// benchmarks on the 200 MHz MIPS + XC2V2000 platform (paper: speedup 5.4,
// kernel speedup 44.8, energy savings 69 %, 26,261 gates).
func BenchmarkTable1MainResults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exper.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t1", t.Format())
		b.ReportMetric(t.Summary.AppSpeedup, "speedup")
		b.ReportMetric(t.Summary.KernelSpeedup, "kernel-speedup")
		b.ReportMetric(100*t.Summary.EnergySavings, "energy-%")
		b.ReportMetric(float64(t.Summary.AreaGates), "gates")
	}
}

// BenchmarkTable2PlatformSweep regenerates the platform clock sweep
// (paper: 12.6x/84% at 40 MHz, 5.4x/69% at 200 MHz, 3.8x/49% at 400 MHz).
func BenchmarkTable2PlatformSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exper.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t2", t.Format())
		for j, mhz := range t.MHz {
			b.ReportMetric(t.Summaries[j].AppSpeedup, fmt.Sprintf("speedup-%.0fMHz", mhz))
		}
	}
}

// BenchmarkTable3OptLevels regenerates the compiler optimization-level
// sweep over crc, fir, brev, matmul (paper: speedup significant at every
// level but not monotone; software time improves with level).
func BenchmarkTable3OptLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exper.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t3", t.Format())
	}
}

// BenchmarkTable4Recovery regenerates the decompilation-success audit
// (paper: high-level constructs recovered for 18 of 20 benchmarks; two
// EEMBC examples fail on indirect jumps).
func BenchmarkTable4Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exper.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		printTable("t4", t.Format())
		b.ReportMetric(float64(t.Recovered), "kernels-recovered")
	}
}

// BenchmarkFigure1AreaSweep regenerates the speedup-vs-FPGA-size series
// over the Virtex-II catalog.
func BenchmarkFigure1AreaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := exper.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		printTable("f1", f.Format())
		b.ReportMetric(f.Speedups[len(f.Speedups)-1], "speedup-largest-device")
	}
}

// BenchmarkAblationPartitioners compares the 90-10 heuristic with the
// greedy and GCLP baselines (quality and selection time).
func BenchmarkAblationPartitioners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := exper.RunPartitionerComparison()
		if err != nil {
			b.Fatal(err)
		}
		printTable("a1", a.Format())
	}
}

// BenchmarkAblationPasses toggles decompiler passes off one at a time on
// -O3 binaries.
func BenchmarkAblationPasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := exper.RunPassAblation()
		if err != nil {
			b.Fatal(err)
		}
		printTable("a2", a.Format())
	}
}

// ---------------------------------------------------------------------
// Stage micro-benchmarks on the crc workload.

func crcImage(b *testing.B) *binimg.Image {
	b.Helper()
	bm, _ := bench.ByName("crc")
	img, err := bm.Compile(1)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkStageCompile measures MicroC compilation.
func BenchmarkStageCompile(b *testing.B) {
	bm, _ := bench.ByName("crc")
	for i := 0; i < b.N; i++ {
		if _, err := mcc.Compile(bm.Source, mcc.Options{OptLevel: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// longSource is the long-block workload of the Stage*Long benchmarks: one
// fixed generated straightline program. At -O0, which keeps every local
// in memory, it compiles to 3.3k text words in a few long basic blocks;
// at -O2 the TAC propagation and CSE passes run over those blocks. The
// per-block analyses must stay linear in block length on it.
func longSource() string {
	return progen.Generate(262, progen.StraightlineConfig()).Source
}

// BenchmarkStageCompileLong measures -O2 compilation of the long-block
// program.
func BenchmarkStageCompileLong(b *testing.B) {
	src := longSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcc.Compile(src, mcc.Options{OptLevel: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageParse measures the MicroC front end alone, lexing and
// parsing the long-block program: the byte-table lexer and the
// precedence-climbing expression parser.
func BenchmarkStageParse(b *testing.B) {
	src := longSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcc.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageAnalyzeLong measures the uncached platform-independent
// flow (simulate, decompile, dopt, alias, synthesize every candidate) on
// the long-block program's -O0 image.
func BenchmarkStageAnalyzeLong(b *testing.B) {
	img, err := mcc.Compile(longSource(), mcc.Options{OptLevel: 0})
	if err != nil {
		b.Fatal(err)
	}
	if len(img.Text) < 3000 {
		b.Fatalf("long-block program has %d text words, want about 3k", len(img.Text))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(img, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSimulate measures bare simulation (profiling off) — the
// raw interpreter hot path.
func BenchmarkStageSimulate(b *testing.B) {
	img := crcImage(b)
	cfg := sim.DefaultConfig()
	warmSimulator(b, img, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSimulateProfiled measures the profiling simulation as the
// partitioning flow runs it: dense instruction and edge counters plus the
// map-shaped Profile conversion at run end.
func BenchmarkStageSimulateProfiled(b *testing.B) {
	img := crcImage(b)
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	warmSimulator(b, img, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSimulateReference runs the same profiled workload through
// the original per-instruction stepper, keeping the fast path's win
// visible in every bench run.
func BenchmarkStageSimulateReference(b *testing.B) {
	img := crcImage(b)
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ExecuteReference(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSimulateFused pins the fused engine explicitly (it is
// also the default behind StageSimulate/StageSimulateProfiled): threaded
// blocks plus superinstruction fusion, profiled.
func BenchmarkStageSimulateFused(b *testing.B) {
	benchmarkEngine(b, sim.EngineFused)
}

// BenchmarkStageSimulateBlock is the ablation point between the
// reference stepper and the fused engine: threaded-code blocks, no
// fusion peephole.
func BenchmarkStageSimulateBlock(b *testing.B) {
	benchmarkEngine(b, sim.EngineBlock)
}

func benchmarkEngine(b *testing.B, eng sim.Engine) {
	img := crcImage(b)
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	cfg.Engine = eng
	warmSimulator(b, img, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// warmSimulator runs one simulation before the timer starts, so the
// machine pool's first-use allocations stay out of the measurement: the
// Stage* allocs/op gate compares steady-state runs, and at -benchtime 1x
// the single timed iteration would otherwise include the warm-up.
func warmSimulator(b *testing.B, img *binimg.Image, cfg sim.Config) {
	b.Helper()
	if _, err := sim.Execute(img, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimMemory isolates the simulator's memory path on a
// store/load-heavy kernel: a 1024-word buffer swept 64 times with a
// store, a reload, and an accumulate per element, reported as ns per
// retired step on the fused (default) engine.
func BenchmarkSimMemory(b *testing.B) {
	words, err := mips.AssembleWords(`
		lui   $t0, 0x1000        # buffer base
		li    $t3, 64            # outer sweeps
	outer:
		addu  $t1, $t0, $zero
		li    $t2, 1024          # words per sweep
	inner:
		sw    $t2, 0($t1)
		lw    $t4, 0($t1)
		addu  $t5, $t5, $t4
		addiu $t1, $t1, 4
		addiu $t2, $t2, -1
		bgtz  $t2, inner
		addiu $t3, $t3, -1
		bgtz  $t3, outer
		addu  $v0, $t5, $zero
		break
	`, binimg.DefaultTextBase)
	if err != nil {
		b.Fatal(err)
	}
	img := &binimg.Image{
		Entry:    binimg.DefaultTextBase,
		TextBase: binimg.DefaultTextBase,
		Text:     words,
		DataBase: binimg.DefaultDataBase,
	}
	cfg := sim.DefaultConfig()
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Execute(img, cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "steps")
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns/step")
	}
}

// BenchmarkStageDecodeText measures instruction decoding: every text
// word of the crc image through mips.Decode, the step the simulator's
// predecode, cycle attribution and the lifter each run per word.
func BenchmarkStageDecodeText(b *testing.B) {
	img := crcImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range img.Text {
			if _, err := mips.Decode(w); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(img.Text)), "ns/word")
}

// BenchmarkStageDecompile measures binary parsing + CDFG creation.
func BenchmarkStageDecompile(b *testing.B) {
	img := crcImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decompile.Decompile(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageDopt measures the decompiler optimization pipeline.
func BenchmarkStageDopt(b *testing.B) {
	img := crcImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res, err := decompile.Decompile(img)
		if err != nil {
			b.Fatal(err)
		}
		f := res.Func("crc_kernel")
		b.StartTimer()
		dopt.Optimize(f)
	}
}

// BenchmarkStageSynthesize measures behavioral synthesis of the hot loop.
func BenchmarkStageSynthesize(b *testing.B) {
	img := crcImage(b)
	res, err := decompile.Decompile(img)
	if err != nil {
		b.Fatal(err)
	}
	f := res.Func("crc_kernel")
	dopt.Optimize(f)
	loops := ir.FindLoops(f)
	if len(loops) == 0 {
		b.Fatal("no loops")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(synth.LoopRegion(f, loops[0]), img, synth.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageEndToEnd measures the whole flow on one binary.
func BenchmarkStageEndToEnd(b *testing.B) {
	img := crcImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(img, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionerSelection isolates the selection heuristics on a
// synthetic 64-candidate set — the paper picks the 90-10 heuristic for
// its speed ("to reduce the time required for partitioning"), targeting
// dynamic partitioning.
func BenchmarkPartitionerSelection(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	var cands []*partition.Candidate
	for i := 0; i < 64; i++ {
		cands = append(cands, &partition.Candidate{
			Name:       fmt.Sprintf("loop%d", i),
			SWTimeNs:   float64(1000 + r.Intn(1_000_000)),
			HWTimeNs:   float64(500 + r.Intn(100_000)),
			AreaGates:  1000 + r.Intn(30_000),
			SizeInstrs: 10 + r.Intn(100),
			IsLoop:     true,
		})
	}
	b.Run("90-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.Partition(cands, 200_000, partition.DefaultOptions())
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.GreedyKnapsack(cands, 200_000)
		}
	})
	b.Run("gclp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.GCLP(cands, 200_000)
		}
	})
}

// ---------------------------------------------------------------------
// Concurrent executor + content-addressed stage cache.

// BenchmarkExecutorTable1Serial is the executor baseline: one worker, no
// cache — the historical serial evaluation path.
func BenchmarkExecutorTable1Serial(b *testing.B) {
	r := exper.NewRunner(1, nil)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorTable1Parallel fans the 20 sweep points over 8 workers
// without caching, isolating the worker-pool overhead/speedup.
func BenchmarkExecutorTable1Parallel(b *testing.B) {
	r := exper.NewRunner(8, nil)
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorTable1Cached shares one stage-cache set across all
// iterations: after the first, every compile/sim/lift/synthesis lookup is
// a hit, so this measures the warm-cache sweep.
func BenchmarkExecutorTable1Cached(b *testing.B) {
	r := exper.NewRunner(8, core.NewCaches())
	if _, err := r.Table1(); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionJumpTables regenerates the E1 extension experiment:
// the paper's two indirect-jump failures with and without jump-table
// recovery.
func BenchmarkExtensionJumpTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := exper.RunJumpTableExtension()
		if err != nil {
			b.Fatal(err)
		}
		printTable("e1", e.Format())
		b.ReportMetric(e.ExtSpeedups[0], "routelookup-speedup")
	}
}
