package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"

	"binpart/internal/alias"
	"binpart/internal/binimg"
	"binpart/internal/cache"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/obs"
	"binpart/internal/obs/hist"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

// Caches bundles the content-addressed stage caches of the flow. All
// fields are optional (nil disables that stage's cache) and a nil *Caches
// disables caching entirely, so RunWith(img, opts, nil) ≡ Run(img, opts).
//
// Cached values are shared: a hit returns the same pointers a previous
// run produced. Every consumer in this package treats them as immutable —
// profiles are only read, lifted functions are only traversed, designs
// are only costed and emitted — which is what makes sharing across a
// concurrent experiment sweep safe (and what `go test -race` checks).
type Caches struct {
	// Compile memoizes MicroC compilation: source text + mcc options.
	Compile *cache.Cache[*binimg.Image]
	// Sim memoizes profiling simulation: image bytes + sim config.
	Sim *cache.Cache[sim.Result]
	// Lift memoizes decompilation plus the decompiler-optimization
	// pipeline: image bytes + decompile options + dopt config.
	Lift *cache.Cache[*LiftResult]
	// Synth memoizes behavioral synthesis: the region's CDFG signature
	// plus the synthesis configuration.
	Synth *cache.Cache[*synth.Design]
	// Analysis memoizes the assembled platform-independent Analysis:
	// image bytes + every option the analysis stages read (the platform,
	// area budget, and algorithm are evaluate-time inputs and excluded).
	Analysis *cache.Cache[*Analysis]
}

// Default per-stage capacities. The suite has 20 benchmarks x 4 opt
// levels; synthesis sees a few candidate regions per binary.
const (
	defaultCompileEntries  = 256
	defaultSimEntries      = 256
	defaultLiftEntries     = 256
	defaultSynthEntries    = 2048
	defaultAnalysisEntries = 256
)

// NewCaches builds an in-memory cache set with default capacities.
func NewCaches() *Caches {
	return &Caches{
		Compile:  cache.New[*binimg.Image](defaultCompileEntries),
		Sim:      cache.New[sim.Result](defaultSimEntries),
		Lift:     cache.New[*LiftResult](defaultLiftEntries),
		Synth:    cache.New[*synth.Design](defaultSynthEntries),
		Analysis: cache.New[*Analysis](defaultAnalysisEntries),
	}
}

// compileCodec round-trips compiled images through the SBF byte format.
func compileCodec() cache.Codec[*binimg.Image] {
	return cache.Codec[*binimg.Image]{
		Marshal:   func(im *binimg.Image) ([]byte, error) { return im.Marshal() },
		Unmarshal: binimg.Unmarshal,
	}
}

// SimCodec round-trips sim.Result through gob for the disk store.
// Profiles are maps of plain counters; the whole value is
// platform-independent data. The other stages' values (lifted CDFGs,
// Designs, the assembled Analysis) hold cyclic graphs and stay in
// memory.
func SimCodec() cache.Codec[sim.Result] {
	return cache.Codec[sim.Result]{
		Marshal: func(r sim.Result) ([]byte, error) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(r); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Unmarshal: func(b []byte) (sim.Result, error) {
			var r sim.Result
			err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r)
			return r, err
		},
	}
}

// WithDiskMax attaches a disk store under dir to the stages whose values
// have a byte format: compilation (SBF images) and simulation (gob
// results). The other stages stay in memory, so candidate Designs (VHDL
// emission) are always the ones this process synthesized. When the
// directory's blobs exceed maxBytes, the store evicts
// oldest-mtime-first in a background sweep (0 means unbounded); this is
// the -cachedir / -cachedir-max pair.
func (c *Caches) WithDiskMax(dir string, maxBytes int64) (*Caches, error) {
	store, err := cache.OpenDiskMax(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	c.Compile.WithDisk(store, compileCodec())
	c.Sim.WithDisk(store, SimCodec())
	return c, nil
}

// cacheNames is the rendering order of the stage caches; StatsMap carries
// the same names as keys, so manifests and the stats table agree.
var cacheNames = []string{"compile", "sim", "lift", "synth", "analysis"}

// StatsMap snapshots every stage cache's counters, keyed by stage name.
// This is the accounting surface shared by the -stats table and the run
// manifest: both render the same snapshot type, so they reconcile exactly.
func (c *Caches) StatsMap() map[string]cache.Stats {
	if c == nil {
		return nil
	}
	return map[string]cache.Stats{
		"compile":  c.Compile.Stats(),
		"sim":      c.Sim.Stats(),
		"lift":     c.Lift.Stats(),
		"synth":    c.Synth.Stats(),
		"analysis": c.Analysis.Stats(),
	}
}

// DiskLatencyMap snapshots the disk-read latency histogram of every
// stage cache with a disk store, keyed by stage name. A memory-only run
// contributes nothing.
func (c *Caches) DiskLatencyMap() map[string]hist.Snapshot {
	if c == nil {
		return nil
	}
	out := map[string]hist.Snapshot{}
	for name, lat := range map[string]func() (hist.Snapshot, bool){
		"compile":  c.Compile.DiskLatency,
		"sim":      c.Sim.DiskLatency,
		"lift":     c.Lift.DiskLatency,
		"synth":    c.Synth.DiskLatency,
		"analysis": c.Analysis.DiskLatency,
	} {
		if snap, ok := lat(); ok {
			out[name] = snap
		}
	}
	return out
}

// StatsString formats per-stage hit/miss/eviction counters.
func (c *Caches) StatsString() string {
	if c == nil {
		return "cache: disabled\n"
	}
	stats := c.StatsMap()
	var b strings.Builder
	b.WriteString("cache  stage      hits   miss  disk  wait  corrupt  evict  entries\n")
	for _, name := range cacheNames {
		s := stats[name]
		fmt.Fprintf(&b, "cache  %-8s %6d %6d %5d %5d %7d %6d %8d\n",
			name, s.Hits, s.Misses, s.DiskHits, s.Waits, s.Corrupt, s.Evictions, s.Entries)
	}
	return b.String()
}

// ImageKey content-addresses a binary image: every field the simulator,
// decompiler, and synthesizer can observe. The hash is memoized on the
// image (see binimg.Image.Key), so repeated stage-cache lookups on one
// image don't rehash its text section.
func ImageKey(img *binimg.Image) cache.Key {
	return img.Key()
}

func hashSimConfig(h *cache.Hasher, cfg sim.Config) {
	h.Uint32(cfg.StackTop).Uint64(cfg.MaxSteps).Bool(cfg.Profile)
	h.Int(int64(cfg.Engine))
	cm := cfg.Cycles
	h.Uint64(cm.ALU).Uint64(cm.Load).Uint64(cm.Store)
	h.Uint64(cm.BranchTaken).Uint64(cm.BranchNot).Uint64(cm.Jump)
	h.Uint64(cm.Mult).Uint64(cm.Div)
}

func hashDoptConfig(h *cache.Hasher, c dopt.Config) {
	h.Bool(c.NoStackRemoval).Bool(c.NoReroll).Bool(c.NoPromote)
	h.Bool(c.NoStrengthRed).Bool(c.NoWidthReduce)
}

func hashSynthOptions(h *cache.Hasher, o synth.Options) {
	h.Int(int64(o.Resources.MemPorts)).Int(int64(o.Resources.Multipliers))
	h.Int(int64(o.Resources.Dividers)).Int(int64(o.Resources.MemBanks))
	h.Float64(o.ClockNs).Bool(o.Pipeline).Bool(o.MoveArrays)
}

func simKey(imgKey cache.Key, cfg sim.Config) cache.Key {
	h := cache.NewHasher("sim")
	h.Bytes(imgKey[:])
	hashSimConfig(h, cfg)
	return h.Sum()
}

// SimKey exposes the simulation stage's cache key so batch front-ends
// (the experiment corpus harness) can pre-warm Caches.Sim with results
// produced by sim.RunBatch.
func SimKey(imgKey cache.Key, cfg sim.Config) cache.Key {
	return simKey(imgKey, cfg)
}

func liftKey(imgKey cache.Key, dec decompile.Options, cfg dopt.Config) cache.Key {
	h := cache.NewHasher("lift")
	h.Bytes(imgKey[:]).Bool(dec.RecoverJumpTables)
	hashDoptConfig(h, cfg)
	return h.Sum()
}

// funcSignature content-addresses a lifted function's CDFG: every block's
// instructions (all operand, width, and control fields) plus the CFG edge
// structure. Two functions with equal signatures schedule, allocate, and
// cost identically.
func funcSignature(f *ir.Func) cache.Key {
	h := cache.NewHasher("cdfg")
	h.String(f.Name).Uint32(f.Entry).Int(int64(len(f.Blocks)))
	for _, b := range f.Blocks {
		h.Int(int64(b.Index)).Uint32(b.Start).Int(int64(len(b.Instrs)))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			h.Int(int64(in.Op)).Int(int64(in.Dst))
			h.Bool(in.A.IsConst).Int(int64(in.A.Loc)).Int(int64(in.A.Val))
			h.Bool(in.B.IsConst).Int(int64(in.B.Loc)).Int(int64(in.B.Val))
			h.Int(int64(in.Off)).Int(int64(in.Width)).Bool(in.Signed)
			h.Int(int64(in.Cond)).Uint32(in.Target).Uint32(in.Addr)
			h.Int(int64(in.WidthBits))
			h.Int(int64(len(in.Table)))
			for _, t := range in.Table {
				h.Uint32(t)
			}
		}
		h.Int(int64(len(b.Succs)))
		for _, s := range b.Succs {
			h.Int(int64(s.Index))
		}
	}
	return h.Sum()
}

// synthCtx threads the synthesis cache, the observability scope and the
// current function's analysis facts through candidate construction. The
// zero context synthesizes directly and records nothing.
type synthCtx struct {
	caches *Caches
	imgKey cache.Key
	// sig is the enclosing function's CDFG signature, computed once per
	// function while building its candidates.
	sig cache.Key
	// obs attributes per-region synth spans to the current sweep point.
	obs *obs.Scope

	// fn and img identify the function whose candidates are being built,
	// and facts holds its loop nest and alias facts: every candidate, its
	// footprint and its synthesis read the same ones. The alias facts are
	// computed on first use, so only a function none of whose candidates
	// reaches synthesis skips them.
	fn    *ir.Func
	img   *binimg.Image
	facts synth.Facts
}

// enter starts candidate construction for f, whose loop nest is loops.
func (sc *synthCtx) enter(f *ir.Func, img *binimg.Image, loops []*ir.Loop) {
	sc.fn, sc.img = f, img
	sc.facts = synth.Facts{Loops: loops}
}

// alias returns the current function's alias facts.
func (sc *synthCtx) alias() *alias.Info {
	if sc.facts.Alias == nil {
		sc.facts.Alias = alias.Analyze(sc.fn, sc.img, sc.facts.Loops)
	}
	return sc.facts.Alias
}

// funcFacts returns the current function's synthesis facts.
func (sc *synthCtx) funcFacts() *synth.Facts {
	sc.alias()
	return &sc.facts
}

// synthesize is synth.Synthesize behind the content-addressed cache. The
// key covers the function CDFG, the region's block subset, the image key
// (alias analysis and block-RAM sizing read the symbol table), and the
// synthesis options; the platform's CPU clock and FPGA device are
// deliberately excluded — synthesis is platform-independent, which is
// what makes the clock and area sweeps nearly free on a warm cache. The
// function's loop nest and alias facts are derived from the CDFG and the
// image, so the key already covers them.
func (sc *synthCtx) synthesize(r synth.Region, opts synth.Options) (*synth.Design, error) {
	if sc.caches == nil || sc.caches.Synth == nil {
		sp := sc.obs.Start(obs.StageSynth)
		d, err := synth.SynthesizeWith(r, sc.img, opts, sc.funcFacts())
		sp.End()
		return d, err
	}
	h := cache.NewHasher("synth")
	h.Bytes(sc.imgKey[:]).Bytes(sc.sig[:]).String(r.Name)
	if r.Blocks == nil {
		h.Int(-1)
	} else {
		idx := make([]int, 0, len(r.Blocks))
		for i := range r.Blocks {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		h.Int(int64(len(idx)))
		for _, i := range idx {
			h.Int(int64(i))
		}
	}
	hashSynthOptions(h, opts)
	sp := sc.obs.Start(obs.StageSynth)
	d, out, err := sc.caches.Synth.GetOrComputeOutcome(h.Sum(), func() (*synth.Design, error) {
		return synth.SynthesizeWith(r, sc.img, opts, sc.funcFacts())
	})
	sp.SetOutcome(out)
	sp.End()
	return d, err
}

// LiftResult is the cached product of decompilation plus the decompiler
// optimization pipeline. Everything here is shared across runs on a cache
// hit and must be treated as read-only.
type LiftResult struct {
	Dec *decompile.Result
	// Reports holds the per-function decompiler-optimization logs.
	Reports map[string]dopt.Report
	// Factors holds per-function reroll factors (block index -> factor).
	Factors map[string]map[int]int
	// Outlines renders each function's recovered control structure.
	Outlines map[string]string
	// Recovery aggregates recovery statistics; FailReasons is shared.
	Recovery RecoveryStats
}

// computeLift runs decompilation, the dopt pipeline, and structure
// recovery — steps 2 and 3 of the flow — producing the cacheable product.
func computeLift(img *binimg.Image, decOpts decompile.Options, cfg dopt.Config) (*LiftResult, error) {
	dec, err := decompile.DecompileWith(img, decOpts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	lr := &LiftResult{
		Dec:      dec,
		Reports:  map[string]dopt.Report{},
		Factors:  map[string]map[int]int{},
		Outlines: map[string]string{},
	}
	lr.Recovery.FailReasons = map[string]string{}
	for name, ferr := range dec.Failed {
		lr.Recovery.FuncsFailed++
		lr.Recovery.FailReasons[name] = ferr.Error()
	}
	for _, f := range dec.Funcs {
		lr.Recovery.FuncsRecovered++
		dr := dopt.OptimizeWith(f, cfg)
		lr.Reports[f.Name] = dr
		lr.Factors[f.Name] = dr.Reroll.Factors
		lr.Recovery.RerolledLoops += len(dr.Reroll.Rerolled)
		lr.Recovery.PromotedMultiplies += dr.Promote.Multiplies
		lr.Recovery.StackSlotsPromoted += dr.Stack.SlotsPromoted
		lr.Recovery.OpsNarrowed += dr.Width.OpsNarrowed

		st := ir.Recover(f)
		sig := fmt.Sprintf("  signature: %s(%d args)", f.Name, dopt.InferParams(f))
		if dopt.InferReturns(f) {
			sig += " -> value"
		}
		lr.Outlines[f.Name] = st.Outline(f) + sig + "\n"
		for _, l := range st.Loops {
			lr.Recovery.LoopsFound++
			if l.Shape != ir.LoopOther {
				lr.Recovery.LoopsShaped++
			}
		}
		for _, i := range st.Ifs {
			lr.Recovery.IfsFound++
			if i.Shape != ir.IfUnstructured {
				lr.Recovery.IfsShaped++
			}
		}
	}
	return lr, nil
}
