package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/fpga"
	"binpart/internal/ir"
	"binpart/internal/partition"
	"binpart/internal/platform"
	"binpart/internal/sim"
)

// runMonolithic is the pre-split RunWith flow, preserved as a reference
// implementation: every stage runs inline in one pass, candidates are
// priced for the platform the moment they are built (not at evaluate
// time), and the report's regions are assembled directly. The split
// Analyze+Evaluate path must be indistinguishable from it on every
// observable output.
func runMonolithic(img *binimg.Image, opts Options) (*Report, error) {
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
	rep := &Report{Options: opts}

	// 1. Profile the all-software execution.
	res, err := sim.Execute(img, opts.Sim)
	if err != nil {
		return nil, fmt.Errorf("core: software simulation: %w", err)
	}
	rep.ExitCode = res.ExitCode
	rep.SWCycles = res.Cycles
	cycAt := sim.AttributeCycles(img, res.Profile, opts.Sim.Cycles)

	// 2+3. Decompile and run the decompiler optimization pipeline.
	lr, err := computeLift(img, decompile.Options{RecoverJumpTables: opts.RecoverJumpTables}, opts.Dopt)
	if err != nil {
		return nil, err
	}
	rep.Recovery = lr.Recovery
	rep.DoptReports = lr.Reports
	rep.Outlines = lr.Outlines

	sctx := &synthCtx{}

	// 4. Build candidates, priced immediately for the platform.
	var cands []*partition.Candidate
	addCand := func(rc *RegionCandidate) {
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
			Name:       rr.Name,
			SWTimeNs:   float64(rr.SWCycles) / opts.Platform.CPUMHz * 1000,
			HWTimeNs:   rr.HWCycles*rr.HWClockNs + float64(rr.Invocations*opts.Platform.CommCPUCycles)/opts.Platform.CPUMHz*1000,
			AreaGates:  rr.AreaGates,
			Footprint:  rr.Footprint,
			SizeInstrs: rc.SizeInstrs,
			IsLoop:     true,
			Payload:    rr,
		})
	}
	for _, f := range lr.Dec.Funcs {
		if f.Name == "_start" {
			continue
		}
		extents := blockExtents(f, img)
		loops := ir.FindLoops(f)
		sctx.enter(f, img, loops)
		if opts.Granularity == GranFunctions {
			rc, err := buildFuncCandidate(f, extents, res.Profile, cycAt, lr.Factors[f.Name], opts, sctx)
			if err == nil && rc != nil {
				addCand(rc)
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
			addCand(rc)
		}
	}
	sort.Slice(rep.Regions, func(i, j int) bool { return rep.Regions[i].SWCycles > rep.Regions[j].SWCycles })

	// 5. Partition.
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
	rep.Metrics = opts.Platform.Evaluate(res.Cycles, regions)
	return rep, nil
}

// fullFingerprint renders every observable field of a Report except the
// measured PartitionTime: options, metrics, recovery, every region with
// its footprint, the per-function optimization logs, and the recovered
// structure outlines.
func fullFingerprint(rep *Report) string {
	s := fmt.Sprintf("opts=%+v\n", rep.Options)
	s += runFingerprint(rep)
	for _, r := range rep.Regions {
		s += fmt.Sprintf("footprint %s func=%s fp=%v\n", r.Name, r.Func, r.Footprint)
	}
	names := make([]string, 0, len(rep.Outlines))
	for name := range rep.Outlines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s += fmt.Sprintf("outline %s:\n%s", name, rep.Outlines[name])
		s += fmt.Sprintf("dopt %s: %+v\n", name, rep.DoptReports[name])
	}
	return s
}

// TestEvaluateMatchesMonolithic is the differential guarantee behind the
// analyze-once/evaluate-many split: across every benchmark, every
// optimization level, and a sweep of area budgets, clock rates, and all
// three partitioners, Analyze+Evaluate must produce Reports identical to
// the pre-split single-pass flow on every field except the wall-clock
// PartitionTime. One Analysis per (benchmark, level) serves all sweep
// points, exactly as the rewritten experiment sweeps use it.
func TestEvaluateMatchesMonolithic(t *testing.T) {
	type point struct {
		name   string
		mhz    float64
		device fpga.Device
		budget int
		alg    Algorithm
	}
	dev := platform.MIPS200.Device
	points := []point{
		// Area sweep: full device, a mid budget, a tight budget.
		{name: "area-full", mhz: 200, device: dev, budget: 0, alg: AlgNinetyTen},
		{name: "area-mid", mhz: 200, device: dev, budget: 20000, alg: AlgNinetyTen},
		{name: "area-tight", mhz: 200, device: dev, budget: 6000, alg: AlgNinetyTen},
		// Clock sweep.
		{name: "clock-40", mhz: 40, device: dev, budget: 0, alg: AlgNinetyTen},
		{name: "clock-400", mhz: 400, device: dev, budget: 0, alg: AlgNinetyTen},
		// All three partitioners.
		{name: "alg-90-10", mhz: 200, device: dev, budget: 0, alg: AlgNinetyTen},
		{name: "alg-greedy", mhz: 200, device: dev, budget: 0, alg: AlgGreedy},
		{name: "alg-gclp", mhz: 200, device: dev, budget: 0, alg: AlgGCLP},
	}

	for _, b := range bench.All() {
		for lvl := 0; lvl <= 3; lvl++ {
			img, err := b.Compile(lvl)
			if err != nil {
				t.Fatalf("%s -O%d: compile: %v", b.Name, lvl, err)
			}
			a, err := Analyze(img, DefaultOptions())
			if err != nil {
				t.Fatalf("%s -O%d: analyze: %v", b.Name, lvl, err)
			}
			for _, pt := range points {
				opts := DefaultOptions()
				opts.Platform = platform.MIPS(pt.mhz, pt.device)
				opts.AreaBudgetGates = pt.budget
				opts.Algorithm = pt.alg

				want, err := runMonolithic(img, opts)
				if err != nil {
					t.Fatalf("%s -O%d %s: monolithic: %v", b.Name, lvl, pt.name, err)
				}
				got := Evaluate(a, opts.Platform, opts.AreaBudgetGates, opts.Algorithm)
				if gf, wf := fullFingerprint(got), fullFingerprint(want); gf != wf {
					t.Fatalf("%s -O%d %s: split flow differs from monolithic:\n--- monolithic ---\n%s--- split ---\n%s",
						b.Name, lvl, pt.name, wf, gf)
				}
			}
		}
	}
}

// TestRunWithMatchesMonolithic checks the composed RunWith entry point
// (cached and uncached) against the monolithic reference on the default
// configuration, so the thin composition itself — default handling
// included — is covered, not just the Evaluate layer.
func TestRunWithMatchesMonolithic(t *testing.T) {
	caches := NewCaches()
	for _, name := range []string{"crc", "fir", "matmul"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		img, err := b.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runMonolithic(img, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ { // second run is fully warm
			got, err := RunWith(img, DefaultOptions(), caches)
			if err != nil {
				t.Fatal(err)
			}
			if gf, wf := fullFingerprint(got), fullFingerprint(want); gf != wf {
				t.Fatalf("%s run %d: RunWith differs from monolithic:\n--- monolithic ---\n%s--- RunWith ---\n%s",
					name, run, wf, gf)
			}
		}
	}
}

// TestConcurrentEvaluateSharesAnalysis is the contract behind sharing
// the Analysis maps with every Report instead of copying them: many
// goroutines evaluating one Analysis at once (as bpartd's workers do)
// must each get the serial result, while reading — never writing — the
// same FailReasons, DoptReports, and Outlines maps. Run under -race it
// catches any write to the shared maps.
func TestConcurrentEvaluateSharesAnalysis(t *testing.T) {
	dev := platform.MIPS200.Device
	points := []Options{DefaultOptions(), DefaultOptions(), DefaultOptions()}
	points[1].Platform = platform.MIPS(40, dev)
	points[2].AreaBudgetGates, points[2].Algorithm = 6000, AlgGreedy

	for _, name := range []string{"crc", "routelookup"} {
		b, _ := bench.ByName(name)
		img, err := b.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		// Without jump-table recovery routelookup's kernel fails to lift,
		// so its reports carry a FailReasons entry.
		aopts := DefaultOptions()
		aopts.RecoverJumpTables = false
		a, err := Analyze(img, aopts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(points))
		for i, o := range points {
			rep := Evaluate(a, o.Platform, o.AreaBudgetGates, o.Algorithm)
			want[i] = fullFingerprint(rep)
			if reflect.ValueOf(rep.Outlines).UnsafePointer() != reflect.ValueOf(a.Outlines).UnsafePointer() ||
				reflect.ValueOf(rep.Recovery.FailReasons).UnsafePointer() != reflect.ValueOf(a.Recovery.FailReasons).UnsafePointer() ||
				reflect.ValueOf(rep.DoptReports).UnsafePointer() != reflect.ValueOf(a.DoptReports).UnsafePointer() {
				t.Fatalf("%s: Evaluate copied the Analysis maps", name)
			}
		}
		if name == "routelookup" && len(a.Recovery.FailReasons) == 0 {
			t.Fatalf("routelookup recorded no recovery failure to share")
		}

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < 10; n++ {
					i := (g + n) % len(points)
					o := points[i]
					rep := Evaluate(a, o.Platform, o.AreaBudgetGates, o.Algorithm)
					RenderReport(rep, true)
					if got := fullFingerprint(rep); got != want[i] {
						t.Errorf("%s point %d: concurrent Evaluate differs from serial:\n%s\nvs\n%s", name, i, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
