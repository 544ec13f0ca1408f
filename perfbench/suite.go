package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/fpga"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/platform"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

// suiteBinaries is how many suite binaries open the job list: the 20
// kernels at -O0..-O3.
const suiteBinaries = 80

// suiteProgen is how many generated programs a suite-cold pass adds to
// the suite binaries: enough that the seed's draw of slow straightline
// programs moves the pass's cost and p99 little.
const suiteProgen = 1600

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 5

// layerCounts are the exact work counts of one job, the same on every
// run with one seed.
type layerCounts struct {
	textWords      int
	steps          uint64
	funcsRecovered int
	funcsTotal     int
	instrsRemoved  int
	regions        int
	gates          int
	selected       int
	renderBytes    int
}

func (c *layerCounts) add(o layerCounts) {
	c.textWords += o.textWords
	c.steps += o.steps
	c.funcsRecovered += o.funcsRecovered
	c.funcsTotal += o.funcsTotal
	c.instrsRemoved += o.instrsRemoved
	c.regions += o.regions
	c.gates += o.gates
	c.selected += o.selected
	c.renderBytes += o.renderBytes
}

// jobOut is what one suite-cold job produced.
type jobOut struct {
	digest uint64 // of the three masked reports
	img    *binimg.Image
	exit   int32  // the analysis' exit code
	cycles uint64 // the analysis' software cycle count
	at200  *core.Report
	counts layerCounts
}

// runJob is one suite-cold binary: compile, analyze, evaluate at the T2
// clocks, render. With a span log it also times the analysis layers one
// by one (splitLayers) under a "layers" span before the core.Analyze
// call; that replay is not part of the job's own time.
func runJob(j job, l *spanLog) (jobOut, error) {
	var out jobOut
	root := l.begin("job", 0)
	defer l.end(root)

	sp := l.begin("mcc.Compile", root)
	img, err := mcc.Compile(j.Source, mcc.Options{OptLevel: j.Opt})
	l.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s -O%d: %w", j.Name, j.Opt, err)
	}
	out.img = img
	out.counts.textWords = len(img.Text)

	opts := core.DefaultOptions()
	if l != nil {
		sp = l.begin("layers", root)
		err = splitLayers(img, opts, l, sp, &out.counts)
		l.end(sp)
		if err != nil {
			return out, fmt.Errorf("%s -O%d: %w", j.Name, j.Opt, err)
		}
	}

	sp = l.begin("core.Analyze", root)
	a, err := core.Analyze(img, opts)
	l.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s -O%d: %w", j.Name, j.Opt, err)
	}
	out.exit, out.cycles = a.ExitCode, a.SWCycles

	var texts [3]string
	for i, mhz := range t2Clocks {
		sp = l.begin("core.Evaluate", root)
		rep := core.Evaluate(a, platform.MIPS(mhz, dev2000), 0, core.AlgNinetyTen)
		l.end(sp)
		sp = l.begin("core.RenderReport", root)
		text := core.RenderReport(rep, false)
		l.end(sp)
		texts[i] = maskReport(text)
		out.counts.selected += len(rep.SelectedRegions())
		out.counts.renderBytes += len(texts[i])
		if mhz == 200 {
			out.at200 = rep
		}
	}
	out.digest = digest(texts[:]...)
	return out, nil
}

// dev2000 is the paper's XC2V2000 device.
var dev2000 = func() fpga.Device {
	d, err := fpga.ByName("XC2V2000")
	if err != nil {
		panic(err)
	}
	return d
}()

// splitLayers calls the analysis layers core.Analyze composes — the
// profiling simulation, the decompiler, the decompiler optimizations on
// every recovered function, and behavioral synthesis of every executed
// outermost loop without calls — each under its own span, and counts
// their work.
func splitLayers(img *binimg.Image, opts core.Options, l *spanLog, parent int64, c *layerCounts) error {
	cfg := opts.Sim
	cfg.Profile = true
	sp := l.begin("sim.Execute", parent)
	res, err := sim.Execute(img, cfg)
	l.end(sp)
	if err != nil {
		return err
	}
	c.steps += res.Steps

	sp = l.begin("decompile.Decompile", parent)
	dec, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: opts.RecoverJumpTables})
	l.end(sp)
	if err != nil {
		return err
	}
	c.funcsRecovered += len(dec.Funcs)
	c.funcsTotal += len(dec.Funcs) + len(dec.Failed)

	for _, f := range dec.Funcs {
		before := f.NumInstrs()
		sp = l.begin("dopt.Optimize", parent)
		dopt.OptimizeWith(f, opts.Dopt)
		l.end(sp)
		c.instrsRemoved += before - f.NumInstrs()
	}

	for _, f := range dec.Funcs {
		if f.Name == "_start" {
			continue
		}
		for _, lp := range ir.FindLoops(f) {
			if lp.Depth != 1 || !synthesizable(lp) || res.Profile.InstCount[lp.Header.Start] == 0 {
				continue
			}
			sp = l.begin("synth.Synthesize", parent)
			d, err := synth.Synthesize(synth.LoopRegion(f, lp), img, opts.Synth)
			l.end(sp)
			if err != nil {
				continue // core skips regions synthesis rejects, too
			}
			c.regions++
			c.gates += d.GateEquivalent()
		}
	}
	return nil
}

// synthesizable is core's region filter: no calls, no unresolved
// indirect jumps.
func synthesizable(lp *ir.Loop) bool {
	for _, b := range lp.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Call || (in.Op == ir.IJump && in.Table == nil) {
				return false
			}
		}
	}
	return true
}

// runPass runs every job once over the worker pool and returns the
// outputs in job order.
func runPass(jobs []job, workers int) ([]jobOut, error) {
	outs := make([]jobOut, len(jobs))
	errs := make([]error, len(jobs))
	forEach(len(jobs), workers, func(k int) {
		outs[k], errs[k] = runJob(jobs[k], nil)
		if jobs[k].Progen || jobs[k].Opt != 1 {
			outs[k].at200 = nil // only the -O1 suite reports feed an oracle (T1)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// output is one timed job's result, compared with the reference pass
// after the timed loop.
type output struct {
	job    int
	digest uint64
}

// loopStats is what a closed-loop phase measured.
type loopStats struct {
	samples  []sample      // per completed job
	outputs  []output      // per completed job
	elapsed  time.Duration // start to last completion
	failed   int64         // jobs that returned an error
	counts   layerCounts   // exact counts over the first pass (traced phase)
	allSteps uint64        // simulated steps over every traced job
}

// closedLoop runs workers in a closed loop over the job list, cycling
// through it, for dur — and, with fullPass, at least until every job
// index has run once.
func closedLoop(jobs []job, workers int, dur time.Duration, fullPass bool, tr *tracer) loopStats {
	ws := make([]loopStats, workers)
	last := make([]time.Time, workers)
	logs := make([]*spanLog, workers)
	for w := range logs {
		logs[w] = tr.log()
	}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &ws[w]
			for {
				k := int(next.Add(1) - 1)
				if time.Now().After(deadline) && (!fullPass || k >= len(jobs)) {
					return
				}
				i := k % len(jobs)
				t0 := time.Now()
				out, err := runJob(jobs[i], logs[w])
				t1 := time.Now()
				last[w] = t1
				if err != nil {
					s.failed++
					continue
				}
				s.samples = append(s.samples, sample{at: t1.Sub(start), lat: t1.Sub(t0), ok: true, cold: jobs[i].Progen})
				s.outputs = append(s.outputs, output{job: i, digest: out.digest})
				s.allSteps += out.counts.steps
				if k < len(jobs) {
					s.counts.add(out.counts)
				}
			}
		}(w)
	}
	wg.Wait()
	var st loopStats
	end := start
	for w, s := range ws {
		st.samples = append(st.samples, s.samples...)
		st.outputs = append(st.outputs, s.outputs...)
		st.failed += s.failed
		st.counts.add(s.counts)
		st.allSteps += s.allSteps
		if last[w].After(end) {
			end = last[w]
		}
	}
	st.elapsed = end.Sub(start)
	return st
}

// verifySuite checks the reference pass against the independent
// oracles and returns, per job index, the error that disqualifies it.
func verifySuite(root string, jobs []job, ref []jobOut, workers int) []error {
	bad := make([]error, len(jobs))
	forEach(len(jobs), workers, func(i int) {
		bad[i] = checkReference(jobs[i].Name, ref[i].img, ref[i].exit, ref[i].cycles)
	})
	o1 := map[string]*core.Report{}
	for i, j := range jobs {
		if !j.Progen && j.Opt == 1 {
			o1[j.Name] = ref[i].at200
		}
	}
	if err := checkT1(root, o1); err != nil {
		for i, j := range jobs {
			if !j.Progen && j.Opt == 1 && bad[i] == nil {
				bad[i] = err
			}
		}
	}
	return bad
}

// tally counts a phase's attempts and failures: errors, outputs that
// differ from the reference pass, and every completion of a job whose
// reference output failed an oracle.
func tally(m *measure, st loopStats, ref []jobOut, bad []error) {
	m.attempted += int64(len(st.outputs)) + st.failed
	m.failed += st.failed
	for _, o := range st.outputs {
		if bad[o.job] != nil || o.digest != ref[o.job].digest {
			m.failed++
		}
	}
}

func runSuiteCold(cfg runConfig) (*measure, error) {
	m := newMeasure()
	jobs := suiteColdJobs(cfg.seed, suiteProgen)

	// Set-up: warm-up passes over the 80 suite binaries, outside the
	// timed loop.
	rounds := setupRounds
	if cfg.traced {
		rounds = 1
	}
	var setups []time.Duration
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if _, err := runPass(jobs[:suiteBinaries], cfg.workers); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	m.set("setup_s", median(setups).Seconds())

	dur := time.Duration(cfg.seconds * float64(time.Second))
	ticks := readCPUTicks()
	var st, tst loopStats
	var tr *tracer
	if !cfg.traced {
		st = closedLoop(jobs, cfg.workers, dur, false, nil)
	} else {
		// Untraced then traced, half the run each: the difference is the
		// tracing overhead. The traced half runs at least one full pass,
		// over which the exact counts are taken.
		st = closedLoop(jobs, cfg.workers, dur/2, false, nil)
		tr = newTracer(fmt.Sprintf("suite-cold-seed%d-pid%d", cfg.seed, os.Getpid()))
		tst = closedLoop(jobs, cfg.workers, dur/2, true, tr)
	}
	reportSteal(m, ticks)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	// The reference pass and the oracles, outside the timed region.
	ref, err := runPass(jobs, cfg.workers)
	if err != nil {
		return nil, err
	}
	bad := verifySuite(cfg.root, jobs, ref, cfg.workers)
	for i, err := range bad {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s -O%d: %v\n", jobs[i].Name, jobs[i].Opt, err)
		}
	}
	tally(m, st, ref, bad)
	tally(m, tst, ref, bad)
	fmt.Fprintf(os.Stderr, "perfbench: suite-cold: %d jobs (%d per pass) in %.2fs\n",
		len(st.samples), len(jobs), st.elapsed.Seconds())

	if !cfg.traced {
		if err := summarize(m, st.samples, st.elapsed, true); err != nil {
			return nil, err
		}
		m.set("peak_rss_mb", rss)
		return m, nil
	}

	spans := tr.all()
	if err := writeJSONL(traceFile(cfg.root, cfg.workload, cfg.seed), spans); err != nil {
		return nil, err
	}
	lt := fold(spans)
	var lat []time.Duration
	for _, s := range st.samples {
		lat = append(lat, s.lat)
	}
	untraced := mean(lat)
	m.set("loadgen.samples", float64(len(lat)))
	m.set("trace.spans", float64(len(spans)))
	// A traced job's own time excludes the layer replay it carries.
	jobTime := (lt["job"].Total - total(lt, "layers")) / time.Duration(lt["job"].Count)
	m.set("trace.overhead_share", float64(jobTime-untraced)/float64(untraced))
	covered := self(lt, "job") + self(lt, "mcc.Compile") + self(lt, "core.Analyze") +
		self(lt, "core.Evaluate") + self(lt, "core.RenderReport")
	m.set("trace.coverage", float64(covered)/float64(lt["job"].Count)/float64(untraced))
	setLayerMetrics(m, lt, tst.counts, tst.allSteps)
	return m, nil
}

// setLayerMetrics reports the folded layer times (means per call, or per
// binary for the per-function and per-region layers) and the exact
// counts.
func setLayerMetrics(m *measure, lt map[string]*layerTime, c layerCounts, allSteps uint64) {
	perBinary := func(name string) float64 {
		if lt["sim.Execute"] == nil {
			return 0
		}
		return ms(self(lt, name) / time.Duration(lt["sim.Execute"].Count))
	}
	m.set("mcc.compile_ms", ms(lt["mcc.Compile"].meanSelf()))
	m.set("mcc.text_words", float64(c.textWords))
	m.set("sim.execute_ms", ms(lt["sim.Execute"].meanSelf()))
	m.set("sim.steps", float64(c.steps))
	if allSteps > 0 {
		m.set("sim.ns_per_step", float64(self(lt, "sim.Execute"))/float64(allSteps))
	}
	m.set("decompile.decompile_ms", ms(lt["decompile.Decompile"].meanSelf()))
	if c.funcsTotal > 0 {
		m.set("decompile.funcs_recovered_share", float64(c.funcsRecovered)/float64(c.funcsTotal))
	}
	m.set("dopt.optimize_ms", perBinary("dopt.Optimize"))
	m.set("dopt.instrs_removed", float64(c.instrsRemoved))
	m.set("synth.synthesize_ms", perBinary("synth.Synthesize"))
	m.set("synth.regions", float64(c.regions))
	m.set("synth.gates", float64(c.gates))
	m.set("core.analyze_ms", ms(lt["core.Analyze"].meanSelf()))
	if a := self(lt, "core.Analyze"); a > 0 {
		split := self(lt, "sim.Execute") + self(lt, "decompile.Decompile") + self(lt, "dopt.Optimize") + self(lt, "synth.Synthesize")
		m.set("core.analyze_coverage", float64(split)/float64(a))
	}
	m.set("core.evaluate_us", us(lt["core.Evaluate"].meanSelf()))
	m.set("partition.selected", float64(c.selected))
	m.set("core.render_us", us(lt["core.RenderReport"].meanSelf()))
	m.set("core.render_bytes", float64(c.renderBytes))
}
