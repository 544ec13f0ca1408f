package core

import (
	"fmt"
	"sort"
	"time"

	"binpart/internal/binimg"
	"binpart/internal/cache"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/fpga"
	"binpart/internal/ir"
	"binpart/internal/obs"
	"binpart/internal/partition"
	"binpart/internal/platform"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

// RegionCandidate is one hardware candidate as the analysis stages see
// it: profile cycles, synthesized design cost, and memory footprint.
// Every field is platform-independent — the simulator's cycle model, the
// decompiler, and the behavioral synthesizer never observe the CPU clock
// or the FPGA device — which is what lets one Analysis serve every sweep
// point. The platform-dependent times (partition.Candidate.SWTimeNs /
// HWTimeNs) are derived from these fields at evaluate time.
type RegionCandidate struct {
	Name        string
	Func        string
	SWCycles    uint64
	HWCycles    float64
	HWClockNs   float64
	Invocations uint64
	AreaGates   int
	Footprint   []string
	SizeInstrs  int
	Design      *synth.Design
}

// Analysis is the immutable product of the flow's heavy stages —
// profiling simulation, decompilation + decompiler optimization, and
// behavioral synthesis of every candidate region — for one binary under
// one analysis configuration. It is platform-independent: pricing the
// candidates for a platform, partitioning, and evaluating the result is
// Evaluate's job and costs microseconds, so sweeps over area budgets,
// clock rates, or partitioners build the Analysis once and fan the sweep
// points over Evaluate.
//
// All reference-typed fields (maps, designs, footprints) are shared with
// the stage caches and with every Report derived from this Analysis, and
// must be treated as read-only.
type Analysis struct {
	// opts records the options the analysis ran under (with Sim.Profile
	// forced on). Evaluate substitutes the platform-dependent fields —
	// Platform, AreaBudgetGates, Algorithm — per call.
	opts     Options
	ExitCode int32
	// SWCycles is the all-software cycle count from simulation.
	SWCycles uint64
	Recovery RecoveryStats
	// DoptReports holds the per-function decompiler-optimization logs.
	DoptReports map[string]dopt.Report
	// Outlines renders each recovered function's control structure.
	Outlines map[string]string
	// Candidates holds every synthesizable region in discovery order.
	Candidates []*RegionCandidate
}

// Analyze runs the platform-independent stages of the flow — simulate,
// decompile + optimize, and synthesize every candidate — without caching.
func Analyze(img *binimg.Image, opts Options) (*Analysis, error) {
	return AnalyzeWith(img, opts, nil)
}

// AnalyzeWith is Analyze through a cache set: the simulation, lift, and
// synthesis stages are memoized individually, and the assembled Analysis
// itself is memoized under a key covering the image and every option
// that can influence it (the platform, area budget, and algorithm are
// excluded — they are evaluate-time inputs).
func AnalyzeWith(img *binimg.Image, opts Options, caches *Caches) (*Analysis, error) {
	return AnalyzeScoped(img, opts, caches, nil)
}

// AnalyzeScoped is AnalyzeWith under an observability scope: the analyze
// stage and its sub-stages (sim, lift, per-region synth) each record a
// span with their cache outcome. A nil scope records nothing and adds no
// allocations — the disabled fast path the Stage* benchmark gates hold to
// zero overhead.
func AnalyzeScoped(img *binimg.Image, opts Options, caches *Caches, sc *obs.Scope) (*Analysis, error) {
	opts.Sim.Profile = true
	sp := sc.Start(obs.StageAnalyze)
	var a *Analysis
	var err error
	if caches != nil && caches.Analysis != nil {
		var out cache.Outcome
		a, out, err = caches.Analysis.GetOrComputeOutcome(analysisKey(img.Key(), opts), func() (*Analysis, error) {
			return computeAnalysis(img, opts, caches, sc)
		})
		sp.SetOutcome(out)
	} else {
		a, err = computeAnalysis(img, opts, caches, sc)
	}
	if a != nil {
		sp.SetRegions(uint64(len(a.Candidates)))
	}
	sp.End()
	return a, err
}

// analysisKey covers the image plus every Options field the analysis
// stages read. Partition options are evaluate-time inputs, but they are
// recorded in the artifact's options (Evaluate reads them), so they
// separate cache entries too.
func analysisKey(imgKey cache.Key, opts Options) cache.Key {
	h := cache.NewHasher("analysis")
	h.Bytes(imgKey[:])
	hashSimConfig(h, opts.Sim)
	h.Bool(opts.RecoverJumpTables)
	hashDoptConfig(h, opts.Dopt)
	hashSynthOptions(h, opts.Synth)
	h.Int(int64(opts.Granularity))
	po := opts.Partition
	h.Float64(po.CoverageTarget).Int(int64(po.MaxLoopInstrs))
	h.Bool(po.SkipAliasStep).Bool(po.SkipFillStep)
	return h.Sum()
}

// computeAnalysis is stages 1-4 of the flow (see RunWith's doc): profile,
// lift, and candidate construction, stopping short of anything that reads
// the platform.
func computeAnalysis(img *binimg.Image, opts Options, caches *Caches, sc *obs.Scope) (*Analysis, error) {
	a := &Analysis{opts: opts}

	var imgKey cache.Key
	if caches != nil {
		imgKey = img.Key()
	}

	// 1. Profile the all-software execution.
	simSp := sc.Start(obs.StageSim)
	simSp.SetEngine(opts.Sim.Engine.String())
	res, simOut, err := simulate(img, opts, imgKey, caches)
	simSp.SetOutcome(simOut)
	simSp.SetInstrs(res.Steps)
	simSp.End()
	if err != nil {
		return nil, fmt.Errorf("core: software simulation: %w", err)
	}
	a.ExitCode = res.ExitCode
	a.SWCycles = res.Cycles
	cycAt := sim.AttributeCycles(img, res.Profile, opts.Sim.Cycles)

	// 2+3. Decompile and run the decompiler optimization pipeline.
	decOpts := decompile.Options{RecoverJumpTables: opts.RecoverJumpTables}
	var lr *LiftResult
	liftSp := sc.Start(obs.StageLift)
	if caches != nil && caches.Lift != nil {
		var out cache.Outcome
		lr, out, err = caches.Lift.GetOrComputeOutcome(liftKey(imgKey, decOpts, opts.Dopt), func() (*LiftResult, error) {
			return computeLift(img, decOpts, opts.Dopt)
		})
		liftSp.SetOutcome(out)
	} else {
		lr, err = computeLift(img, decOpts, opts.Dopt)
	}
	if lr != nil {
		liftSp.SetRegions(uint64(lr.Recovery.FuncsRecovered))
	}
	liftSp.End()
	if err != nil {
		return nil, err
	}
	a.Recovery = lr.Recovery
	a.DoptReports = lr.Reports
	a.Outlines = lr.Outlines

	// 4. Build candidates: outermost loops (default), or whole call-free
	// functions when running at function granularity.
	sctx := &synthCtx{caches: caches, imgKey: imgKey, obs: sc}
	for _, f := range lr.Dec.Funcs {
		if f.Name == "_start" {
			continue
		}
		if caches != nil && caches.Synth != nil {
			sctx.sig = funcSignature(f)
		}
		extents := blockExtents(f, img)
		loops := ir.FindLoops(f)
		sctx.enter(f, img, loops)
		if opts.Granularity == GranFunctions {
			rc, err := buildFuncCandidate(f, extents, res.Profile, cycAt, lr.Factors[f.Name], opts, sctx)
			if err == nil && rc != nil {
				a.Candidates = append(a.Candidates, rc)
			}
			continue
		}
		for _, l := range loops {
			if l.Depth != 1 || !synthesizable(l) {
				continue
			}
			rc, err := buildCandidate(f, l, extents, res.Profile, cycAt, lr.Factors[f.Name], opts, sctx)
			if err != nil || rc == nil {
				continue
			}
			a.Candidates = append(a.Candidates, rc)
		}
	}
	return a, nil
}

// Evaluate prices the analysis' candidates for one platform, partitions
// under the area budget (0 selects the platform device's full capacity),
// and evaluates the chosen partition — microseconds per call. Partition
// options come from the analysis' recorded options.
func Evaluate(a *Analysis, p platform.Platform, areaBudgetGates int, alg Algorithm) *Report {
	return EvaluateScoped(a, p, areaBudgetGates, alg, nil)
}

// EvaluateScoped is Evaluate under an observability scope: the evaluate
// stage records one span per call with the number of regions partitioned
// to hardware. A nil scope records nothing.
func EvaluateScoped(a *Analysis, p platform.Platform, areaBudgetGates int, alg Algorithm, sc *obs.Scope) *Report {
	opts := a.opts
	opts.Platform = p
	opts.AreaBudgetGates = areaBudgetGates
	opts.Algorithm = alg
	return evaluateOpts(a, opts, sc)
}

// evaluateOpts is the platform-dependent tail of the flow: candidate
// pricing, partitioning, and platform evaluation. The Report's top-level
// maps and regions are freshly built per call, so concurrent evaluations
// of one Analysis are safe and a Report's Selected/Step marks are its
// own.
func evaluateOpts(a *Analysis, opts Options, sc *obs.Scope) *Report {
	sp := sc.Start(obs.StageEvaluate)
	if opts.Platform.CPUMHz == 0 {
		opts.Platform = platform.MIPS200
	}
	if opts.AreaBudgetGates == 0 {
		opts.AreaBudgetGates = fpga.Area{
			Slices: opts.Platform.Device.Slices,
			Mult18: opts.Platform.Device.Mult18,
		}.GateEquivalent()
	}
	opts.Sim.Profile = true
	rep := &Report{
		Options:  opts,
		ExitCode: a.ExitCode,
		SWCycles: a.SWCycles,
		// Shared read-only with the Analysis (see Report).
		Recovery:    a.Recovery,
		DoptReports: a.DoptReports,
		Outlines:    a.Outlines,
	}

	// Price the candidates: software time from the CPU clock, hardware
	// time from the synthesized clock plus the per-invocation
	// communication overhead on the CPU side.
	var cands []*partition.Candidate
	for _, rc := range a.Candidates {
		rr := &RegionReport{
			Name:        rc.Name,
			Func:        rc.Func,
			SWCycles:    rc.SWCycles,
			HWCycles:    rc.HWCycles,
			HWClockNs:   rc.HWClockNs,
			Invocations: rc.Invocations,
			AreaGates:   rc.AreaGates,
			Footprint:   rc.Footprint,
			Design:      rc.Design,
		}
		rep.Regions = append(rep.Regions, rr)
		cands = append(cands, &partition.Candidate{
			Name:       rc.Name,
			SWTimeNs:   float64(rc.SWCycles) / opts.Platform.CPUMHz * 1000,
			HWTimeNs:   rc.HWCycles*rc.HWClockNs + float64(rc.Invocations*opts.Platform.CommCPUCycles)/opts.Platform.CPUMHz*1000,
			AreaGates:  rc.AreaGates,
			Footprint:  rc.Footprint,
			SizeInstrs: rc.SizeInstrs,
			IsLoop:     true,
			Payload:    rr,
		})
	}
	sort.Slice(rep.Regions, func(i, j int) bool { return rep.Regions[i].SWCycles > rep.Regions[j].SWCycles })

	// 5. Partition (timed: the paper's heuristic targets dynamic use).
	start := time.Now()
	var pres *partition.Result
	switch opts.Algorithm {
	case AlgGreedy:
		pres = partition.GreedyKnapsack(cands, opts.AreaBudgetGates)
	case AlgGCLP:
		pres = partition.GCLP(cands, opts.AreaBudgetGates)
	default:
		pres = partition.Partition(cands, opts.AreaBudgetGates, opts.Partition)
	}
	rep.PartitionTime = time.Since(start)

	// 6. Evaluate on the platform.
	var regions []platform.Region
	for _, c := range pres.Selected {
		rr := c.Payload.(*RegionReport)
		rr.Selected = true
		rr.Step = pres.Step[c.Name]
		regions = append(regions, platform.Region{
			Name:        rr.Name,
			SWCycles:    rr.SWCycles,
			HWCycles:    rr.HWCycles,
			HWClockNs:   rr.HWClockNs,
			Invocations: rr.Invocations,
			AreaGates:   rr.AreaGates,
			ActiveGates: rr.AreaGates,
		})
	}
	rep.Metrics = opts.Platform.Evaluate(a.SWCycles, regions)
	sp.SetSelected(uint64(len(pres.Selected)))
	sp.End()
	return rep
}

// simulate is stage 1 behind its cache, reporting how the cache served it
// (OutcomeNone when uncached).
func simulate(img *binimg.Image, opts Options, imgKey cache.Key, caches *Caches) (sim.Result, cache.Outcome, error) {
	if caches != nil && caches.Sim != nil {
		return caches.Sim.GetOrComputeOutcome(simKey(imgKey, opts.Sim), func() (sim.Result, error) {
			return sim.Execute(img, opts.Sim)
		})
	}
	res, err := sim.Execute(img, opts.Sim)
	return res, cache.OutcomeNone, err
}
