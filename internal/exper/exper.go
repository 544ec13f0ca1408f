// Package exper regenerates the paper's evaluation: every table and
// figure in DESIGN.md's experiment index is produced by a function here,
// shared by the experiments CLI (cmd/experiments) and the benchmark
// harness (bench_test.go at the repository root).
//
// Each experiment is a sweep over (benchmark, optimization level,
// configuration) points. Sweeps whose points differ only in the platform,
// area budget, or partitioning algorithm run analyze-once / evaluate-many:
// each benchmark's platform-independent core.Analysis is built once (in
// parallel across benchmarks) and every sweep point is a microsecond-scale
// core.Evaluate call. Sweeps that vary analysis inputs (opt level, dopt
// config, synthesis options) fan full-flow points over the pool instead.
// Either way a Runner bounds the worker pool and reuses stage results
// through a content-addressed cache (see internal/cache); the
// package-level Run* functions execute serially without caching and exist
// for API stability. Row order — and therefore every formatted table — is
// identical at any worker count.
package exper

import (
	"fmt"
	"strings"
	"time"

	"binpart/internal/bench"
	"binpart/internal/core"
	"binpart/internal/dopt"
	"binpart/internal/fpga"
	"binpart/internal/platform"
)

// Row is one benchmark's outcome on one configuration.
type Row struct {
	Name          string
	Suite         string
	OptLevel      int
	SWTimeMs      float64
	HWSWTimeMs    float64
	AppSpeedup    float64
	KernelSpeedup float64
	EnergySavings float64
	AreaGates     int
	Selected      int
	KernelFailed  bool
	PartitionTime time.Duration
	Recovery      core.RecoveryStats
}

// Summary aggregates rows as the paper does: averages over benchmarks
// with a hardware partition.
type Summary struct {
	AppSpeedup    float64
	KernelSpeedup float64
	EnergySavings float64
	AreaGates     int
	N             int
}

func summarize(rows []Row) Summary {
	var s Summary
	var kernelN int
	for _, r := range rows {
		s.AppSpeedup += r.AppSpeedup
		s.EnergySavings += r.EnergySavings
		s.AreaGates += r.AreaGates
		if r.KernelSpeedup > 0 {
			s.KernelSpeedup += r.KernelSpeedup
			kernelN++
		}
		s.N++
	}
	if s.N > 0 {
		s.AppSpeedup /= float64(s.N)
		s.EnergySavings /= float64(s.N)
		s.AreaGates /= s.N
	}
	if kernelN > 0 {
		s.KernelSpeedup /= float64(kernelN)
	}
	return s
}

// suiteJobs builds one job per benchmark at -O1 on the given platform.
func suiteJobs(p platform.Platform) []rowJob {
	var jobs []rowJob
	for _, b := range bench.All() {
		opts := core.DefaultOptions()
		opts.Platform = p
		jobs = append(jobs, rowJob{bench: b, level: 1, opts: opts})
	}
	return jobs
}

// Table1 is the main-results experiment: all 20 benchmarks, -O1
// binaries, 200 MHz MIPS + XC2V2000. Paper reference: average application
// speedup 5.4, kernel speedup 44.8, energy savings 69 %, area 26,261
// gates.
type Table1 struct {
	Rows    []Row
	Summary Summary
}

// RunTable1 executes the main-results experiment serially.
func RunTable1() (*Table1, error) { return defaultRunner.Table1() }

// Table1 executes the main-results experiment.
func (r *Runner) Table1() (*Table1, error) {
	return r.tableOn(platform.MIPS200)
}

func (r *Runner) tableOn(p platform.Platform) (*Table1, error) {
	rows, err := r.rows(suiteJobs(p))
	if err != nil {
		return nil, err
	}
	return &Table1{Rows: rows, Summary: summarize(rows)}, nil
}

// Format renders the table.
func (t *Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "T1  Main results (-O1 binaries, %s)\n", platform.MIPS200.Name)
	fmt.Fprintf(&b, "%-12s %-10s %9s %9s %8s %8s %7s %9s\n",
		"benchmark", "suite", "sw(ms)", "hw/sw(ms)", "speedup", "kernel", "energy", "gates")
	for _, r := range t.Rows {
		note := ""
		if r.KernelFailed {
			note = "  (kernel CDFG recovery failed: indirect jump)"
		}
		fmt.Fprintf(&b, "%-12s %-10s %9.3f %9.3f %8.2f %8.2f %6.1f%% %9d%s\n",
			r.Name, r.Suite, r.SWTimeMs, r.HWSWTimeMs, r.AppSpeedup,
			r.KernelSpeedup, 100*r.EnergySavings, r.AreaGates, note)
	}
	s := t.Summary
	fmt.Fprintf(&b, "%-12s %-10s %9s %9s %8.2f %8.2f %6.1f%% %9d\n",
		"AVERAGE", "", "", "", s.AppSpeedup, s.KernelSpeedup, 100*s.EnergySavings, s.AreaGates)
	fmt.Fprintf(&b, "paper:        speedup 5.4, kernel 44.8, energy 69%%, 26261 gates\n")
	return b.String()
}

// Table2 is the platform clock sweep. Paper reference: 40 MHz -> 12.6x /
// 84 %; 200 MHz -> 5.4x / 69 %; 400 MHz -> 3.8x / 49 %.
type Table2 struct {
	MHz       []float64
	Summaries []Summary
}

// RunTable2 executes the platform sweep serially.
func RunTable2() (*Table2, error) { return defaultRunner.Table2() }

// Table2 executes the platform sweep analyze-once: the analysis stages
// never observe the CPU clock, so each benchmark is analyzed once (the
// fan-out) and every clock point is a microsecond core.Evaluate call.
func (r *Runner) Table2() (*Table2, error) {
	mhzs := []float64{40, 200, 400}
	jobs := suiteJobs(platform.MIPS200)
	as, err := r.analyses(jobs)
	if err != nil {
		return nil, err
	}
	t := &Table2{}
	for _, mhz := range mhzs {
		p := platform.MIPS(mhz, platform.MIPS200.Device)
		rows := make([]Row, len(jobs))
		for i, a := range as {
			rows[i] = rowFrom(jobs[i], core.EvaluateScoped(a, p, 0, jobs[i].opts.Algorithm, r.scope(jobs[i], 0)))
		}
		t.MHz = append(t.MHz, mhz)
		t.Summaries = append(t.Summaries, summarize(rows))
	}
	return t, nil
}

// Format renders the table.
func (t *Table2) Format() string {
	var b strings.Builder
	b.WriteString("T2  Platform clock sweep (suite averages)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s  %s\n", "CPU clock", "speedup", "energy", "paper")
	paper := map[float64]string{40: "12.6x / 84%", 200: "5.4x / 69%", 400: "3.8x / 49%"}
	for i, mhz := range t.MHz {
		s := t.Summaries[i]
		fmt.Fprintf(&b, "%7.0fMHz %9.2fx %9.1f%%  %s\n", mhz, s.AppSpeedup, 100*s.EnergySavings, paper[mhz])
	}
	return b.String()
}

// Table3 is the compiler-optimization-level sweep over the four sweep
// benchmarks. Paper reference: software time improves with level;
// synthesized time usually improves too; speedup significant at every
// level but not monotone; energy similar across levels.
type Table3 struct {
	Rows []Row // grouped by benchmark, levels 0..3
}

// RunTable3 executes the optimization-level experiment serially.
func RunTable3() (*Table3, error) { return defaultRunner.Table3() }

// Table3 executes the optimization-level experiment.
func (r *Runner) Table3() (*Table3, error) {
	var jobs []rowJob
	for _, b := range bench.OptSweepSet() {
		for lvl := 0; lvl <= 3; lvl++ {
			jobs = append(jobs, rowJob{bench: b, level: lvl, opts: core.DefaultOptions()})
		}
	}
	rows, err := r.rows(jobs)
	if err != nil {
		return nil, err
	}
	return &Table3{Rows: rows}, nil
}

// Format renders the table.
func (t *Table3) Format() string {
	var b strings.Builder
	b.WriteString("T3  Compiler optimization level sweep (200 MHz MIPS)\n")
	fmt.Fprintf(&b, "%-10s %5s %10s %10s %9s %8s\n", "benchmark", "level", "sw(ms)", "hw/sw(ms)", "speedup", "energy")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %5s %10.3f %10.3f %8.2fx %7.1f%%\n",
			r.Name, fmt.Sprintf("-O%d", r.OptLevel), r.SWTimeMs, r.HWSWTimeMs,
			r.AppSpeedup, 100*r.EnergySavings)
	}
	return b.String()
}

// Table4 is the decompilation-success audit. Paper reference: almost all
// high-level constructs recovered; CDFG recovery fails for 2 EEMBC
// examples because of indirect jumps.
type Table4 struct {
	Rows       []Row
	Recovered  int
	Failed     int
	FailedList []string
}

// RunTable4 executes the recovery audit serially.
func RunTable4() (*Table4, error) { return defaultRunner.Table4() }

// Table4 executes the recovery audit.
func (r *Runner) Table4() (*Table4, error) {
	var jobs []rowJob
	for _, b := range bench.All() {
		jobs = append(jobs, rowJob{bench: b, level: 1, opts: core.DefaultOptions()})
	}
	rows, err := r.rows(jobs)
	if err != nil {
		return nil, err
	}
	t := &Table4{Rows: rows}
	for _, row := range rows {
		if row.KernelFailed {
			t.Failed++
			t.FailedList = append(t.FailedList, row.Name)
		} else {
			t.Recovered++
		}
	}
	return t, nil
}

// Format renders the table.
func (t *Table4) Format() string {
	var b strings.Builder
	b.WriteString("T4  Decompilation / control-structure recovery\n")
	fmt.Fprintf(&b, "%-12s %6s %6s %6s %6s %8s %8s %7s %7s\n",
		"benchmark", "funcs", "fail", "loops", "shaped", "ifs", "rerolled", "promote", "narrow")
	for _, r := range t.Rows {
		rec := r.Recovery
		fmt.Fprintf(&b, "%-12s %6d %6d %6d %6d %4d/%-3d %8d %7d %7d\n",
			r.Name, rec.FuncsRecovered, rec.FuncsFailed, rec.LoopsFound,
			rec.LoopsShaped, rec.IfsShaped, rec.IfsFound,
			rec.RerolledLoops, rec.PromotedMultiplies, rec.OpsNarrowed)
	}
	if t.Failed == 0 {
		fmt.Fprintf(&b, "kernels recovered: %d/20 (paper: 18/20 — switch-table recovery closes the indirect-jump gap)\n",
			t.Recovered)
	} else {
		fmt.Fprintf(&b, "kernels recovered: %d/20 (paper: 18/20, failures from indirect jumps: %v)\n",
			t.Recovered, t.FailedList)
	}
	return b.String()
}

// Figure1 sweeps the FPGA device size (area budget) and reports the suite
// average speedup per device, motivating the paper's "different FPGA
// sizes" evaluation: speedup grows with capacity, then saturates.
type Figure1 struct {
	Devices  []string
	Speedups []float64
	Areas    []int
}

// RunFigure1 executes the area sweep serially.
func RunFigure1() (*Figure1, error) { return defaultRunner.Figure1() }

// Figure1 executes the area sweep over the Virtex-II catalog analyze-
// once: compilation, simulation, lift, and synthesis are all device-
// independent, so each of the 20 benchmarks is analyzed once (the
// fan-out) and each of the 11 devices costs one core.Evaluate call per
// benchmark — partitioning plus platform evaluation, microseconds each.
func (r *Runner) Figure1() (*Figure1, error) {
	jobs := suiteJobs(platform.MIPS200)
	as, err := r.analyses(jobs)
	if err != nil {
		return nil, err
	}
	f := &Figure1{}
	for _, dev := range fpga.Catalog {
		p := platform.MIPS(200, dev)
		var sum float64
		for i, a := range as {
			sum += core.EvaluateScoped(a, p, 0, jobs[i].opts.Algorithm, r.scope(jobs[i], 0)).Metrics.AppSpeedup
		}
		f.Devices = append(f.Devices, dev.Name)
		f.Speedups = append(f.Speedups, sum/float64(len(as)))
		f.Areas = append(f.Areas, fpga.Area{Slices: dev.Slices, Mult18: dev.Mult18}.GateEquivalent())
	}
	return f, nil
}

// Format renders the figure as an ASCII series.
func (f *Figure1) Format() string {
	var b strings.Builder
	b.WriteString("F1  Average speedup vs FPGA size (200 MHz MIPS)\n")
	max := 0.0
	for _, s := range f.Speedups {
		if s > max {
			max = s
		}
	}
	for i, d := range f.Devices {
		bar := int(f.Speedups[i] / max * 40)
		fmt.Fprintf(&b, "%-9s %9d gates %7.2fx %s\n", d, f.Areas[i], f.Speedups[i], strings.Repeat("#", bar))
	}
	return b.String()
}

// Ablation compares the 90-10 heuristic against the baselines and
// measures partitioning execution time (the paper's motivation for the
// simple heuristic is speed, targeting dynamic partitioning).
type Ablation struct {
	Names     []string
	Speedups  []float64
	PartTimes []time.Duration
}

// RunPartitionerComparison compares partitioning algorithms serially.
func RunPartitionerComparison() (*Ablation, error) { return defaultRunner.PartitionerComparison() }

// PartitionerComparison compares partitioning algorithms over the suite
// analyze-once: the candidate set is algorithm-independent, so each
// benchmark is analyzed once and every algorithm is a core.Evaluate call
// — which is also the honest way to time the partitioners themselves,
// isolated from the heavy stages.
func (r *Runner) PartitionerComparison() (*Ablation, error) {
	algs := []core.Algorithm{core.AlgNinetyTen, core.AlgGreedy, core.AlgGCLP}
	jobs := suiteJobs(platform.MIPS200)
	as, err := r.analyses(jobs)
	if err != nil {
		return nil, err
	}
	a := &Ablation{}
	for _, alg := range algs {
		var sum float64
		var ptime time.Duration
		for i, an := range as {
			rep := core.EvaluateScoped(an, jobs[i].opts.Platform, jobs[i].opts.AreaBudgetGates, alg, r.scope(jobs[i], 0))
			sum += rep.Metrics.AppSpeedup
			ptime += rep.PartitionTime
		}
		a.Names = append(a.Names, alg.String())
		a.Speedups = append(a.Speedups, sum/float64(len(as)))
		a.PartTimes = append(a.PartTimes, ptime/time.Duration(len(as)))
	}
	return a, nil
}

// Format renders the comparison.
func (a *Ablation) Format() string {
	var b strings.Builder
	b.WriteString("A1  Partitioning algorithm comparison (suite average)\n")
	for i, n := range a.Names {
		fmt.Fprintf(&b, "%-10s speedup %6.2fx  partition time %v\n", n, a.Speedups[i], a.PartTimes[i])
	}
	return b.String()
}

// PassAblation measures the contribution of individual decompiler
// optimizations on the four sweep benchmarks at -O3 (where rerolling and
// promotion have the most to undo).
type PassAblation struct {
	Names    []string
	Speedups []float64
	Areas    []int
}

// RunPassAblation toggles decompiler passes off one at a time, serially.
func RunPassAblation() (*PassAblation, error) { return defaultRunner.PassAblation() }

// PassAblation toggles decompiler passes off one at a time.
func (r *Runner) PassAblation() (*PassAblation, error) {
	cfgs := []struct {
		name string
		cfg  dopt.Config
		syn  func(o *core.Options)
	}{
		{name: "full", cfg: dopt.Config{}},
		{name: "no-reroll", cfg: dopt.Config{NoReroll: true}},
		{name: "no-promote", cfg: dopt.Config{NoPromote: true}},
		{name: "no-stackrm", cfg: dopt.Config{NoStackRemoval: true}},
		{name: "no-width", cfg: dopt.Config{NoWidthReduce: true}},
		{name: "no-pipeline", cfg: dopt.Config{}, syn: func(o *core.Options) { o.Synth.Pipeline = false }},
		{name: "no-alias", cfg: dopt.Config{}, syn: func(o *core.Options) { o.Partition.SkipAliasStep = true }},
		{name: "banked-mem4", cfg: dopt.Config{}, syn: func(o *core.Options) { o.Synth.Resources.MemBanks = 4 }},
	}
	var jobs []rowJob
	for _, c := range cfgs {
		for _, b := range bench.OptSweepSet() {
			opts := core.DefaultOptions()
			opts.Dopt = c.cfg
			if c.syn != nil {
				c.syn(&opts)
			}
			jobs = append(jobs, rowJob{bench: b, level: 3, opts: opts})
		}
	}
	rows, err := r.rows(jobs)
	if err != nil {
		return nil, err
	}
	a := &PassAblation{}
	per := len(bench.OptSweepSet())
	for i, c := range cfgs {
		var sum float64
		var area int
		for _, row := range rows[i*per : (i+1)*per] {
			sum += row.AppSpeedup
			area += row.AreaGates
		}
		a.Names = append(a.Names, c.name)
		a.Speedups = append(a.Speedups, sum/float64(per))
		a.Areas = append(a.Areas, area/per)
	}
	return a, nil
}

// Format renders the ablation.
func (a *PassAblation) Format() string {
	var b strings.Builder
	b.WriteString("A2  Decompiler-pass ablation (-O3 binaries, sweep benchmarks)\n")
	for i, n := range a.Names {
		fmt.Fprintf(&b, "%-12s speedup %6.2fx  area %6d gates\n", n, a.Speedups[i], a.Areas[i])
	}
	return b.String()
}

// Extension measures the indirect-jump (jump table) recovery extension:
// the paper's two failing benchmarks, with and without recovery.
type Extension struct {
	Names         []string
	BaseSpeedups  []float64
	ExtSpeedups   []float64
	BaseRecovered []bool
	ExtRecovered  []bool
}

// RunJumpTableExtension executes the extension experiment serially.
func RunJumpTableExtension() (*Extension, error) { return defaultRunner.JumpTableExtension() }

// JumpTableExtension executes the extension experiment.
func (r *Runner) JumpTableExtension() (*Extension, error) {
	names := []string{"routelookup", "ttsprk"}
	var jobs []rowJob
	for _, name := range names {
		b, ok := bench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("missing benchmark %s", name)
		}
		// The baseline reproduces the paper's flow, where indirect
		// jumps defeat CDFG recovery; the default options have the
		// extension on, so it is switched off explicitly here.
		base := core.DefaultOptions()
		base.RecoverJumpTables = false
		ext := core.DefaultOptions()
		ext.RecoverJumpTables = true
		jobs = append(jobs, rowJob{bench: b, level: 1, opts: base}, rowJob{bench: b, level: 1, opts: ext})
	}
	rows, err := r.rows(jobs)
	if err != nil {
		return nil, err
	}
	e := &Extension{}
	for i, name := range names {
		base, ext := rows[2*i], rows[2*i+1]
		e.Names = append(e.Names, name)
		e.BaseSpeedups = append(e.BaseSpeedups, base.AppSpeedup)
		e.ExtSpeedups = append(e.ExtSpeedups, ext.AppSpeedup)
		e.BaseRecovered = append(e.BaseRecovered, !base.KernelFailed)
		e.ExtRecovered = append(e.ExtRecovered, !ext.KernelFailed)
	}
	return e, nil
}

// Format renders the extension experiment.
func (e *Extension) Format() string {
	var b strings.Builder
	b.WriteString("E1  Indirect-jump (jump table) recovery extension\n")
	fmt.Fprintf(&b, "%-12s %18s %18s\n", "benchmark", "paper flow", "with extension")
	for i, n := range e.Names {
		status := func(rec bool, s float64) string {
			if !rec {
				return fmt.Sprintf("FAILED (%.2fx)", s)
			}
			return fmt.Sprintf("recovered %.2fx", s)
		}
		fmt.Fprintf(&b, "%-12s %18s %18s\n", n,
			status(e.BaseRecovered[i], e.BaseSpeedups[i]),
			status(e.ExtRecovered[i], e.ExtSpeedups[i]))
	}
	return b.String()
}
