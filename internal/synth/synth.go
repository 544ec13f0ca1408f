package synth

import (
	"fmt"
	"sort"

	"binpart/internal/alias"
	"binpart/internal/binimg"
	"binpart/internal/fpga"
	"binpart/internal/ir"
)

// Options configures synthesis of one region.
type Options struct {
	Resources Resources
	// ClockNs is the target clock period (chaining budget); zero selects
	// DefaultTargetClockNs.
	ClockNs float64
	// Pipeline enables modulo-style loop pipelining of single-block
	// inner loops (on by default through DefaultOptions).
	Pipeline bool
	// MoveArrays moves the region's resolved data objects into FPGA
	// block RAM (partitioning step 2 of the paper).
	MoveArrays bool
}

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{Resources: DefaultResources, Pipeline: true, MoveArrays: true}
}

// PipeInfo describes one pipelined loop in a design.
type PipeInfo struct {
	// HeaderIndex is the loop header's block index in the source Func.
	HeaderIndex int
	// BodyIndex is the pipelined body block's index.
	BodyIndex int
	// II is the initiation interval in cycles.
	II int
	// Depth is the pipeline depth (states of one iteration).
	Depth int
}

// MemObject is a data object moved into on-chip block RAM.
type MemObject struct {
	Sym   string
	Bytes int
}

// Design is the synthesized RTL-level result for one region.
type Design struct {
	Name    string
	ClockNs float64
	Area    fpga.Area
	// BlockStates maps source block index to its control-step count.
	BlockStates map[int]int
	Pipelines   []PipeInfo
	MemObjects  []MemObject
	// scheds retains the schedules for VHDL emission.
	scheds map[int]*scheduleResult
	// Blocks retains the synthesized region for VHDL emission.
	Blocks []*ir.Block
}

// ClockMHz returns the design's achievable clock in MHz.
func (d *Design) ClockMHz() float64 { return fpga.MHz(d.ClockNs) }

// GateEquivalent returns the conventional equivalent-gate area metric.
func (d *Design) GateEquivalent() int { return d.Area.GateEquivalent() }

// Schedule exposes a block's scheduled operations for the VHDL backend:
// for each instruction index, the control step it executes in.
func (d *Design) Schedule(blockIndex int) (states int, stepOf []int, ok bool) {
	sr, found := d.scheds[blockIndex]
	if !found {
		return 0, nil, false
	}
	stepOf = make([]int, len(sr.g.nodes))
	for i, n := range sr.g.nodes {
		stepOf[i] = n.state
	}
	return sr.states, stepOf, true
}

// Region selects the blocks of a function to synthesize. A nil block set
// means the whole function.
type Region struct {
	Func   *ir.Func
	Blocks map[int]*ir.Block // nil = all
	Name   string
}

// LoopRegion builds a Region from a recovered loop.
func LoopRegion(f *ir.Func, l *ir.Loop) Region {
	return Region{
		Func:   f,
		Blocks: l.Blocks,
		Name:   fmt.Sprintf("%s_loop_0x%x", f.Name, l.Header.Start),
	}
}

// FuncRegion builds a Region covering an entire function, supporting the
// paper's "synthesizing an entire software application" use.
func FuncRegion(f *ir.Func) Region {
	return Region{Func: f, Name: f.Name}
}

func (r Region) blocks() []*ir.Block {
	if r.Blocks == nil {
		return r.Func.Blocks
	}
	out := make([]*ir.Block, 0, len(r.Blocks))
	for _, b := range r.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Synthesize maps a region onto an FSM-with-datapath design. img provides
// data symbols for alias-driven memory disambiguation and block-RAM
// sizing; it may be nil (conservative aliasing, no array migration).
func Synthesize(r Region, img *binimg.Image, opts Options) (*Design, error) {
	return SynthesizeWith(r, img, opts, nil)
}

// Facts holds the per-function analyses synthesis reads: the loop nest
// (ir.FindLoops) and, when there is an image, the alias facts computed
// from it. Both depend only on the function and the image, so every
// region of one function can share one Facts.
type Facts struct {
	Loops []*ir.Loop
	Alias *alias.Info
}

// newFacts computes the Facts for f. img may be nil (no alias facts).
func newFacts(f *ir.Func, img *binimg.Image) *Facts {
	fx := &Facts{Loops: ir.FindLoops(f)}
	if img != nil {
		fx.Alias = alias.Analyze(f, img, fx.Loops)
	}
	return fx
}

// SynthesizeWith is Synthesize reusing precomputed Facts for r.Func and
// img; nil facts are computed here.
func SynthesizeWith(r Region, img *binimg.Image, opts Options, fx *Facts) (*Design, error) {
	blocks := r.blocks()
	if len(blocks) == 0 {
		return nil, fmt.Errorf("synth: empty region %q", r.Name)
	}
	for _, b := range blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Call {
				return nil, fmt.Errorf("synth: region %q contains a call at 0x%x; inline or exclude it", r.Name, b.Instrs[i].Addr)
			}
			if b.Instrs[i].Op == ir.IJump && b.Instrs[i].Table == nil {
				return nil, fmt.Errorf("synth: region %q contains an unresolved indirect jump at 0x%x", r.Name, b.Instrs[i].Addr)
			}
		}
	}
	if fx == nil {
		fx = newFacts(r.Func, img)
	}
	am := fx.Alias

	d := &Design{
		Name:        r.Name,
		BlockStates: map[int]int{},
		scheds:      map[int]*scheduleResult{},
		Blocks:      blocks,
	}
	var scheds []*scheduleResult
	var maxChain float64
	for _, b := range blocks {
		g := buildDFG(b, am)
		sr := schedule(g, opts.Resources, opts.ClockNs)
		scheds = append(scheds, sr)
		d.scheds[b.Index] = sr
		d.BlockStates[b.Index] = sr.states
		if sr.maxChain > maxChain {
			maxChain = sr.maxChain
		}
	}
	d.ClockNs = fpga.ClockFromCriticalPath(maxChain)

	al := allocate(scheds)
	maxStates := 0
	for _, sr := range scheds {
		if sr.states > maxStates {
			maxStates = sr.states
		}
	}
	d.Area = al.area(maxStates)

	// Loop pipelining of single-block inner loops.
	if opts.Pipeline {
		d.Pipelines = pipelineLoops(r, fx.Loops, d, opts.Resources)
	}

	// Array migration into block RAM.
	if opts.MoveArrays && am != nil {
		blockSet := map[int]*ir.Block{}
		for _, b := range blocks {
			blockSet[b.Index] = b
		}
		syms, _ := am.Footprint(blockSet)
		banks := opts.Resources.MemBanks
		if banks < 1 {
			banks = 1
		}
		for _, s := range syms {
			if sym, ok := findSymbol(img, s); ok {
				d.MemObjects = append(d.MemObjects, MemObject{Sym: s, Bytes: int(sym.Size)})
				// Banking splits the object across at least `banks`
				// BRAMs and adds per-bank port/decode logic.
				brams := fpga.BRAMsFor(int(sym.Size))
				if brams < banks {
					brams = banks
				}
				d.Area = d.Area.Add(fpga.Area{BRAM: brams})
				if banks > 1 {
					extra := fpga.CostOf(fpga.ClassMemPort, 32).Area
					for k := 1; k < banks; k++ {
						d.Area = d.Area.Add(extra)
					}
				}
			}
		}
	}
	return d, nil
}

func findSymbol(img *binimg.Image, name string) (binimg.Symbol, bool) {
	if img == nil {
		return binimg.Symbol{}, false
	}
	return img.Lookup(name)
}

// pipelineLoops computes initiation intervals for pipelinable loops in
// the region: single-block bodies (plus the rotated test header) whose
// iterations can overlap. II = max(resource II, recurrence II).
func pipelineLoops(r Region, loops []*ir.Loop, d *Design, res Resources) []PipeInfo {
	var out []PipeInfo
	for _, l := range loops {
		if r.Blocks != nil {
			inRegion := true
			for idx := range l.Blocks {
				if _, ok := r.Blocks[idx]; !ok {
					inRegion = false
				}
			}
			if !inRegion {
				continue
			}
		}
		if len(l.Blocks) > 2 {
			continue
		}
		// Identify the work block (bulk of instructions) and require the
		// other block (if any) to be a pure test. Iterate in block-index
		// order so ties break deterministically.
		idxs := make([]int, 0, len(l.Blocks))
		for idx := range l.Blocks {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		var body *ir.Block
		for _, idx := range idxs {
			if b := l.Blocks[idx]; body == nil || len(b.Instrs) > len(body.Instrs) {
				body = b
			}
		}
		sr, ok := d.scheds[body.Index]
		if !ok {
			continue
		}
		ii := resourceII(sr, res)
		if rec := recurrenceII(sr); rec > ii {
			ii = rec
		}
		if ii < 1 {
			ii = 1
		}
		out = append(out, PipeInfo{
			HeaderIndex: l.Header.Index,
			BodyIndex:   body.Index,
			II:          ii,
			Depth:       sr.states,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BodyIndex < out[j].BodyIndex })
	return out
}

// resourceII is the initiation interval forced by shared resources. Each
// known data object owns a dual-ported block RAM (partitioning step 2
// moved it on chip), so memory pressure is per object.
func resourceII(sr *scheduleResult, res Resources) int {
	memPerObj := map[string]int{}
	mult, div := 0, 0
	for _, n := range sr.g.nodes {
		if _, counts := opClass(n.in); !counts {
			continue
		}
		switch n.class {
		case fpga.ClassMemPort:
			memPerObj[n.memObj]++
		case fpga.ClassMult:
			mult++
		case fpga.ClassDiv:
			div++
		}
	}
	ii := 1
	if ports := res.effectivePorts(); ports > 0 {
		for _, c := range memPerObj {
			ii = maxI(ii, ceilDiv(c, ports))
		}
	}
	if res.Multipliers > 0 {
		ii = maxI(ii, ceilDiv(mult, res.Multipliers))
	}
	if res.Dividers > 0 && div > 0 {
		ii = maxI(ii, ceilDiv(div, res.Dividers))
	}
	return ii
}

// recurrenceII is the initiation interval forced by loop-carried scalar
// dependences: for each location both read-before-write and written in
// the block, the chain from first read to last write must fit in II.
// Pure accumulators — a location read exactly once, by the associative
// self-update that writes it — are re-associated into a reduction tree
// and contribute no recurrence.
func recurrenceII(sr *scheduleResult) int {
	b := sr.g.block
	written := map[ir.Loc]int{} // loc -> completion state of final write
	firstRead := map[ir.Loc]int{}
	def := map[ir.Loc]bool{}
	readCount := map[ir.Loc]int{}
	selfAssoc := map[ir.Loc]bool{}
	for i, n := range sr.g.nodes {
		in := &b.Instrs[i]
		for _, u := range in.Uses() {
			readCount[u]++
			if !def[u] {
				if _, seen := firstRead[u]; !seen {
					firstRead[u] = n.state
				}
			}
		}
		if in.HasDst() {
			def[in.Dst] = true
			written[in.Dst] = n.state
			isAssoc := in.Op == ir.Add || in.Op == ir.Xor || in.Op == ir.Or || in.Op == ir.And
			readsSelf := (!in.A.IsConst && in.A.Loc == in.Dst) || (!in.B.IsConst && in.B.Loc == in.Dst)
			selfAssoc[in.Dst] = isAssoc && readsSelf
		}
	}
	ii := 1
	for loc, r := range firstRead {
		w, ok := written[loc]
		if !ok {
			continue
		}
		if selfAssoc[loc] && readCount[loc] == 1 {
			continue // tree-reducible accumulator
		}
		if span := w - r + 1; span > ii {
			ii = span
		}
	}
	return ii
}

// Cycles estimates the hardware cycles to execute the region once, given
// per-block execution counts (from profiling). Pipelined loop bodies
// contribute iterations*II + depth; other blocks contribute
// executions*states.
func (d *Design) Cycles(blockExecs map[int]uint64) float64 {
	pipelined := map[int]PipeInfo{}
	for _, p := range d.Pipelines {
		pipelined[p.BodyIndex] = p
	}
	var total float64
	for idx, states := range d.BlockStates {
		execs := blockExecs[idx]
		if p, ok := pipelined[idx]; ok {
			if execs > 0 {
				total += float64(execs)*float64(p.II) + float64(p.Depth)
			}
			// The rotated test header folds into the pipeline control.
			continue
		}
		if p, isHdr := headerOf(d.Pipelines, idx); isHdr {
			_ = p
			continue
		}
		total += float64(execs) * float64(states)
	}
	return total
}

func headerOf(pipes []PipeInfo, idx int) (PipeInfo, bool) {
	for _, p := range pipes {
		if p.HeaderIndex == idx && p.BodyIndex != idx {
			return p, true
		}
	}
	return PipeInfo{}, false
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
