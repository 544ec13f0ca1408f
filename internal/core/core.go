// Package core is this repository's primary contribution: the paper's
// decompilation-based binary-level hardware/software partitioning flow,
// assembled from the substrate packages into one pipeline:
//
//	binary ──simulate/profile──► hot spots
//	   │
//	   └─decompile──► CDFG ──decompiler optimizations──► clean CDFG
//	          │                                             │
//	          └── control structure recovery                │
//	                                                        ▼
//	     candidates (loops + times + areas + footprints) ──► partitioner
//	                                                        │
//	                 behavioral synthesis + Virtex-II model ◄┘
//	                                                        │
//	                   platform evaluation (speedup/energy) ▼ + VHDL
//
// The tool is compiler-independent by construction: its only input is an
// SBF binary image, no matter which source language or compiler (or
// optimization level) produced it.
package core

import (
	"time"

	"binpart/internal/binimg"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/obs"
	"binpart/internal/partition"
	"binpart/internal/platform"
	"binpart/internal/sim"
	"binpart/internal/synth"
	"binpart/internal/vhdl"
)

// Algorithm selects the partitioning heuristic.
type Algorithm int

const (
	AlgNinetyTen Algorithm = iota // the paper's 3-step heuristic
	AlgGreedy                     // Henkel-style gain/area knapsack
	AlgGCLP                       // simplified Kalavade/Lee
)

func (a Algorithm) String() string {
	switch a {
	case AlgNinetyTen:
		return "90-10"
	case AlgGreedy:
		return "greedy"
	case AlgGCLP:
		return "gclp"
	}
	return "unknown"
}

// Granularity selects the regions offered to the partitioner.
type Granularity int

const (
	// GranLoops offers outermost loops (the paper's default flow).
	GranLoops Granularity = iota
	// GranFunctions offers whole call-free functions, supporting the
	// paper's "synthesizing an entire software application, not just
	// kernels" use.
	GranFunctions
)

// Options configures a partitioning run.
type Options struct {
	Platform platform.Platform
	// AreaBudgetGates caps the hardware partition; 0 means the
	// platform device's full logic capacity.
	AreaBudgetGates int
	Partition       partition.Options
	Synth           synth.Options
	Dopt            dopt.Config
	Algorithm       Algorithm
	Granularity     Granularity
	// RecoverJumpTables enables switch-table recovery in the
	// decompiler: register-indirect jumps that follow the jump-table
	// idiom become resolved multi-way branches. On in DefaultOptions,
	// closing the paper's 18/20 recovery gap (all 20 kernels recover);
	// set it false to reproduce the paper's two indirect-jump failures.
	RecoverJumpTables bool
	Sim               sim.Config
}

// DefaultOptions targets the paper's 200 MHz MIPS + XC2V2000 platform.
func DefaultOptions() Options {
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	return Options{
		Platform:          platform.MIPS200,
		Partition:         partition.DefaultOptions(),
		Synth:             synth.DefaultOptions(),
		RecoverJumpTables: true,
		Sim:               cfg,
	}
}

// RegionReport describes one hardware candidate after synthesis.
type RegionReport struct {
	Name        string
	Func        string
	SWCycles    uint64
	HWCycles    float64
	HWClockNs   float64
	Invocations uint64
	AreaGates   int
	Footprint   []string
	Selected    bool
	Step        int // partitioning step that chose it (0 if unselected)
	Design      *synth.Design
}

// RecoveryStats aggregates control-structure recovery over the binary.
type RecoveryStats struct {
	FuncsRecovered int
	FuncsFailed    int
	FailReasons    map[string]string
	LoopsFound     int
	LoopsShaped    int // classified as while/do-while/self
	IfsFound       int
	IfsShaped      int
	// RerolledLoops and PromotedMultiplies summarize the
	// compiler-optimization-undoing passes.
	RerolledLoops      int
	PromotedMultiplies int
	StackSlotsPromoted int
	OpsNarrowed        int
}

// Report is the full outcome of a partitioning run.
//
// The Regions slice and its RegionReports are fresh per report. The
// maps — Recovery.FailReasons, DoptReports, Outlines — are shared, not
// copied: they are the Analysis's own maps (and through it the lift
// cache's), so every Report evaluated from one Analysis reads the same
// ones. Nothing writes to them after analysis; consumers must treat them
// as read-only, as they do the shared compiled images and designs.
type Report struct {
	Options  Options
	ExitCode int32
	// SWCycles is the all-software cycle count from simulation.
	SWCycles uint64
	Regions  []*RegionReport
	Metrics  platform.Metrics
	Recovery RecoveryStats
	// PartitionTime is how long candidate selection took (the paper
	// stresses fast partitioning for dynamic-synthesis integration).
	PartitionTime time.Duration
	// DoptReports holds the per-function decompiler-optimization logs.
	DoptReports map[string]dopt.Report
	// Outlines renders each recovered function's control structure
	// (loops, induction variables, conditionals) as text.
	Outlines map[string]string
}

// SelectedRegions returns the regions chosen for hardware.
func (r *Report) SelectedRegions() []*RegionReport {
	var out []*RegionReport
	for _, reg := range r.Regions {
		if reg.Selected {
			out = append(out, reg)
		}
	}
	return out
}

// VHDL emits the RTL for every selected region, keyed by region name.
func (r *Report) VHDL() (map[string]string, error) {
	out := map[string]string{}
	for _, reg := range r.SelectedRegions() {
		text, err := vhdl.Emit(reg.Design)
		if err != nil {
			return nil, err
		}
		out[reg.Name] = text
	}
	return out, nil
}

// Run executes the full flow on a binary image without caching.
func Run(img *binimg.Image, opts Options) (*Report, error) {
	return RunWith(img, opts, nil)
}

// RunWith executes the full flow on a binary image, memoizing the
// simulation, lift (decompile + dopt), synthesis, and assembled-analysis
// stages through the given cache set. A nil cache set computes everything
// directly. The returned Report is freshly built either way; only stage
// products (profiles, lifted functions, designs, and the Report's
// recovery maps) are shared with other runs, and those are treated as
// immutable throughout this package.
//
// RunWith is a thin composition of the two layers of the flow: the
// platform-independent AnalyzeWith (simulate, lift, synthesize — see
// analysis.go) and the platform-dependent evaluate tail (candidate
// pricing, partitioning, platform evaluation). Sweeps that vary only the
// platform, area budget, or algorithm should call AnalyzeWith once and
// Evaluate per point instead.
func RunWith(img *binimg.Image, opts Options, caches *Caches) (*Report, error) {
	return RunScoped(img, opts, caches, nil)
}

// RunScoped is RunWith under an observability scope (see AnalyzeScoped):
// every stage of the flow records a span attributed to the scope's
// benchmark, opt level, and worker. A nil scope records nothing and adds
// no allocations.
func RunScoped(img *binimg.Image, opts Options, caches *Caches, sc *obs.Scope) (*Report, error) {
	a, err := AnalyzeScoped(img, opts, caches, sc)
	if err != nil {
		return nil, err
	}
	return evaluateOpts(a, opts, sc), nil
}

// buildFuncCandidate synthesizes an entire call-free function as one
// hardware region.
func buildFuncCandidate(f *ir.Func, extents map[int][2]uint32,
	prof *sim.Profile, cycAt map[uint32]uint64,
	rerollFactors map[int]int, opts Options, sctx *synthCtx) (*RegionCandidate, error) {

	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Call || (in.Op == ir.IJump && in.Table == nil) {
				return nil, nil // not synthesizable as a whole
			}
		}
	}
	var swCycles uint64
	blockExecs := map[int]uint64{}
	for _, b := range f.Blocks {
		ext := extents[b.Index]
		for pc := ext[0]; pc < ext[1]; pc += 4 {
			swCycles += cycAt[pc]
		}
		execs := prof.InstCount[ext[0]]
		if k, ok := rerollFactors[b.Index]; ok && k > 1 {
			execs *= uint64(k)
		}
		blockExecs[b.Index] = execs
	}
	if swCycles == 0 {
		return nil, nil
	}
	invocations := prof.InstCount[f.Entry]
	if invocations == 0 {
		invocations = 1
	}
	d, err := sctx.synthesize(synth.FuncRegion(f), opts.Synth)
	if err != nil {
		return nil, err
	}
	fp, _ := sctx.alias().FuncFootprint(f)
	return &RegionCandidate{
		Name:        d.Name,
		Func:        f.Name,
		SWCycles:    swCycles,
		HWCycles:    d.Cycles(blockExecs),
		HWClockNs:   d.ClockNs,
		Invocations: invocations,
		AreaGates:   d.GateEquivalent(),
		Footprint:   fp,
		SizeInstrs:  f.NumInstrs(),
		Design:      d,
	}, nil
}

// synthesizable rejects loops containing calls or unresolved indirect
// jumps.
func synthesizable(l *ir.Loop) bool {
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Call || (in.Op == ir.IJump && in.Table == nil) {
				return false
			}
		}
	}
	return true
}

// blockExtents computes each block's original address range [start,end).
func blockExtents(f *ir.Func, img *binimg.Image) map[int][2]uint32 {
	starts := make([]uint32, len(f.Blocks))
	for i, b := range f.Blocks {
		starts[i] = b.Start
	}
	end := img.TextEnd()
	if s, ok := img.SymbolAt(f.Entry); ok && s.Size > 0 {
		end = s.Addr + s.Size
	}
	out := map[int][2]uint32{}
	for i, b := range f.Blocks {
		e := end
		if i+1 < len(f.Blocks) {
			e = starts[i+1]
		}
		out[b.Index] = [2]uint32{b.Start, e}
	}
	return out
}

// buildCandidate synthesizes one loop region and gathers its profile
// numbers.
func buildCandidate(f *ir.Func, l *ir.Loop, extents map[int][2]uint32,
	prof *sim.Profile, cycAt map[uint32]uint64,
	rerollFactors map[int]int, opts Options, sctx *synthCtx) (*RegionCandidate, error) {

	// Software cycles and block execution counts from the profile.
	var swCycles uint64
	blockExecs := map[int]uint64{}
	for idx := range l.Blocks {
		ext := extents[idx]
		for pc := ext[0]; pc < ext[1]; pc += 4 {
			swCycles += cycAt[pc]
		}
		execs := prof.InstCount[ext[0]]
		if k, ok := rerollFactors[idx]; ok && k > 1 {
			execs *= uint64(k)
		}
		blockExecs[idx] = execs
	}
	if swCycles == 0 {
		return nil, nil // never executed; not a candidate
	}

	// Invocations: header executions minus re-entries from inside the
	// loop. Taken branches are in the edge profile; fallthrough and
	// unconditional flows contribute the predecessor's execution count.
	takenFrom := map[uint32]uint64{}
	for e, n := range prof.EdgeCount {
		takenFrom[e.From] += n
	}
	headerExecs := prof.InstCount[l.Header.Start]
	var backFlow uint64
	for _, p := range l.Header.Preds {
		if !l.Contains(p.Index) {
			continue
		}
		execs := prof.InstCount[p.Start]
		t := p.Terminator()
		switch {
		case t == nil:
			backFlow += execs
		case t.Op == ir.Jump:
			backFlow += execs
		case t.Op == ir.Branch:
			taken := prof.EdgeCount[sim.Edge{From: t.Addr, To: l.Header.Start}]
			if t.Target == l.Header.Start {
				backFlow += taken
			} else if execs >= takenFrom[t.Addr] {
				backFlow += execs - takenFrom[t.Addr]
			}
		default:
			backFlow += execs
		}
	}
	invocations := uint64(1)
	if headerExecs > backFlow {
		invocations = headerExecs - backFlow
	}

	d, err := sctx.synthesize(synth.LoopRegion(f, l), opts.Synth)
	if err != nil {
		return nil, err
	}
	fp, _ := sctx.alias().Footprint(l.Blocks)

	return &RegionCandidate{
		Name:        d.Name,
		Func:        f.Name,
		SWCycles:    swCycles,
		HWCycles:    d.Cycles(blockExecs),
		HWClockNs:   d.ClockNs,
		Invocations: invocations,
		AreaGates:   d.GateEquivalent(),
		Footprint:   fp,
		SizeInstrs:  l.NumInstrs(),
		Design:      d,
	}, nil
}
