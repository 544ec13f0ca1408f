package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/core"
	"binpart/internal/exper"
	"binpart/internal/sim"
)

// maskReport blanks the one measured line of a report — the partition
// wall time in "partition (alg, <time>):" — so two renderings of the
// same inputs compare equal.
func maskReport(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "partition (") && strings.HasSuffix(l, "):") {
			if c := strings.Index(l, ", "); c > 0 {
				lines[i] = l[:c] + ", <time>):"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// digest hashes a text for comparison without keeping it.
func digest(texts ...string) uint64 {
	h := fnv.New64a()
	for _, t := range texts {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// checkReference holds a binary's analysis to the reference simulator:
// sim.ExecuteReference (the preserved original stepper) must give the
// exit code and cycle count the analysis reports, and the same step
// count as the default engine.
func checkReference(name string, img *binimg.Image, exit int32, cycles uint64) error {
	cfg := core.DefaultOptions().Sim
	ref, err := sim.ExecuteReference(img, cfg)
	if err != nil {
		return fmt.Errorf("%s: reference simulation: %w", name, err)
	}
	if ref.ExitCode != exit || ref.Cycles != cycles {
		return fmt.Errorf("%s: analysis says exit %d in %d cycles, reference simulator exit %d in %d cycles",
			name, exit, cycles, ref.ExitCode, ref.Cycles)
	}
	res, err := sim.Execute(img, cfg)
	if err != nil {
		return fmt.Errorf("%s: simulation: %w", name, err)
	}
	if res.Steps != ref.Steps {
		return fmt.Errorf("%s: %d steps, reference simulator %d", name, res.Steps, ref.Steps)
	}
	return nil
}

// t1GoldenPath is the repository's pinned main-results table.
const t1GoldenPath = "internal/exper/testdata/t1_golden.txt"

// checkT1 renders the T1 table from the benchmark's own -O1 reports at
// 200 MHz (in suite order) and requires it byte-equal to the golden
// file.
func checkT1(root string, reports map[string]*core.Report) error {
	golden, err := os.ReadFile(filepath.Join(root, t1GoldenPath))
	if err != nil {
		return fmt.Errorf("T1 oracle: %w", err)
	}
	var t exper.Table1
	for _, b := range bench.All() {
		rep := reports[b.Name]
		if rep == nil {
			return fmt.Errorf("T1 oracle: no -O1 report for %s", b.Name)
		}
		_, failed := rep.Recovery.FailReasons[b.KernelFunc]
		t.Rows = append(t.Rows, exper.Row{
			Name:          b.Name,
			Suite:         b.Suite,
			OptLevel:      1,
			SWTimeMs:      rep.Metrics.SWTimeS * 1e3,
			HWSWTimeMs:    rep.Metrics.HWSWTimeS * 1e3,
			AppSpeedup:    rep.Metrics.AppSpeedup,
			KernelSpeedup: rep.Metrics.KernelSpeedup,
			EnergySavings: rep.Metrics.EnergySavings,
			AreaGates:     rep.Metrics.AreaGates,
			Selected:      len(rep.SelectedRegions()),
			KernelFailed:  failed,
		})
	}
	t.Summary = summarizeT1(t.Rows)
	if got := t.Format(); got != string(golden) {
		return fmt.Errorf("T1 oracle: table differs from %s:\n%s", t1GoldenPath, got)
	}
	return nil
}

// summarizeT1 averages rows as the paper's T1 summary line does: means
// over every row, the kernel speedup over rows with a kernel speedup.
func summarizeT1(rows []exper.Row) exper.Summary {
	var s exper.Summary
	kernelN := 0
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
