// Package progen generates random MicroC programs for differential
// testing. Programs are deterministic and defined for every input: loops
// have constant bounds, array indexes are masked to the array size, and
// division by zero / shift overflow have the same defined semantics in
// the compiler, the simulator, and the IR interpreter.
//
// Generated programs follow the kernel convention used across the
// repository: a call-free `kernel` function holding all loops, and a
// `main` that calls it once and returns its checksum. That makes the same
// program usable for three oracles: cross-optimization-level output
// equality, simulator-vs-IR-interpreter equality after decompilation, and
// decompiler-pass semantic preservation.
package progen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Program is one generated test case.
type Program struct {
	Source string
	Seed   int64
	// Shapes lists the switch shapes present in the source, sorted:
	// "switch-dense", "switch-sparse", "switch-fallthrough", and
	// "switch-in-loop" (a switch nested in a loop body). Empty when the
	// program contains no switch.
	Shapes []string
}

// HasShape reports whether the program contains the named shape.
func (p Program) HasShape(shape string) bool {
	for _, s := range p.Shapes {
		if s == shape {
			return true
		}
	}
	return false
}

// Config bounds the generator.
type Config struct {
	// MaxStmts bounds the kernel's statement count per block.
	MaxStmts int
	// MaxDepth bounds expression nesting.
	MaxDepth int
	// MaxLoops bounds loop count (each with constant trip count).
	MaxLoops int
	// Arrays enables global array access.
	Arrays bool
	// UnrollFriendly biases loop bounds to multiples of four so the -O3
	// unroller and the decompiler's reroller both fire.
	UnrollFriendly bool
	// Switches sprinkles switch statements into the kernel — dense,
	// sparse, and fallthrough-ridden, inside and outside loops. Every
	// shape satisfies the compiler's jump-table density rule, so each
	// switch compiles to the indirect-jump idiom the decompiler's
	// switch-table recovery must resolve.
	Switches bool
	// Straightline restricts the kernel to long unbranched runs of
	// scalar and array arithmetic (hot loops allowed, ifs and switches
	// not): the fusion-friendly extreme, where basic blocks are long and
	// the simulator's superinstruction translator should cover most of
	// the dynamic stream.
	Straightline bool
	// Branchy makes nearly every statement a conditional guarding a
	// single assignment: basic blocks of one or two instructions, the
	// fusion-hostile extreme where almost no adjacent pair is fusible.
	Branchy bool
}

// SwitchConfig returns the switch-rich bounds used by the differential
// corpus: every generated kernel draws from all switch shapes.
func SwitchConfig() Config {
	return Config{MaxStmts: 5, MaxDepth: 3, MaxLoops: 2, Arrays: true, Switches: true}
}

// DefaultConfig returns moderate bounds.
func DefaultConfig() Config {
	return Config{MaxStmts: 6, MaxDepth: 3, MaxLoops: 3, Arrays: true}
}

// StraightlineConfig returns the fusion-friendly bounds: long unbranched
// statement runs, one hot loop for dynamic weight.
func StraightlineConfig() Config {
	return Config{MaxStmts: 24, MaxDepth: 2, MaxLoops: 1, Arrays: true, Straightline: true}
}

// BranchyConfig returns the fusion-hostile bounds: branch-per-statement
// kernels whose basic blocks are too short to fuse.
func BranchyConfig() Config {
	return Config{MaxStmts: 10, MaxDepth: 1, MaxLoops: 2, Arrays: true, Branchy: true}
}

// Shape is a named generator configuration.
type Shape struct {
	Name string
	Cfg  Config
}

// Shapes returns the four program shapes — default, switch, straightline
// and branchy — which span the block lengths and control shapes the
// analyses' cost and correctness depend on.
func Shapes() []Shape {
	return []Shape{
		{"default", DefaultConfig()},
		{"switch", SwitchConfig()},
		{"straightline", StraightlineConfig()},
		{"branchy", BranchyConfig()},
	}
}

type gen struct {
	r         *rand.Rand
	cfg       Config
	sb        strings.Builder
	scals     []string // scalar local names in scope
	loopN     int
	loopDepth int // current loop nesting, for shape tracking
	shapes    map[string]bool
	indent    string
}

// Generate produces a random program from the seed.
func Generate(seed int64, cfg Config) Program {
	g := &gen{r: rand.New(rand.NewSource(seed)), cfg: cfg}
	g.emit()
	shapes := make([]string, 0, len(g.shapes))
	for s := range g.shapes {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	return Program{Source: g.sb.String(), Seed: seed, Shapes: shapes}
}

func (g *gen) mark(shape string) {
	if g.shapes == nil {
		g.shapes = map[string]bool{}
	}
	g.shapes[shape] = true
}

func (g *gen) pf(format string, args ...any) {
	fmt.Fprintf(&g.sb, "%s", g.indent)
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteString("\n")
}

func (g *gen) emit() {
	// Globals: two power-of-two arrays with deterministic initializers.
	if g.cfg.Arrays {
		g.pf("int ga[16] = {%s};", g.initList(16))
		g.pf("int gb[8] = {%s};", g.initList(8))
	}
	g.pf("int kernel(int n) {")
	g.indent = "\t"
	// Scalar pool.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("v%d", i)
		g.pf("int %s = %d;", name, g.r.Intn(200)-100)
		g.scals = append(g.scals, name)
	}
	g.scals = append(g.scals, "n")
	g.block(g.cfg.MaxLoops)
	g.pf("return %s;", g.checksum())
	g.indent = ""
	g.pf("}")
	g.pf("int main() { return kernel(%d); }", g.r.Intn(100)+1)
}

func (g *gen) initList(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("%d", g.r.Intn(512)-256)
	}
	return strings.Join(parts, ", ")
}

func (g *gen) checksum() string {
	parts := make([]string, 0, len(g.scals))
	for _, v := range g.scals {
		if v == "n" {
			continue
		}
		parts = append(parts, v)
	}
	return "(" + strings.Join(parts, " + ") + ") & 0xffff"
}

// block emits up to MaxStmts statements, spending at most loops loop
// budget.
func (g *gen) block(loops int) {
	n := 1 + g.r.Intn(g.cfg.MaxStmts)
	for i := 0; i < n; i++ {
		g.stmt(loops)
	}
}

func (g *gen) stmt(loops int) {
	if g.cfg.Straightline {
		g.straightStmt(loops)
		return
	}
	if g.cfg.Branchy {
		g.branchyStmt(loops)
		return
	}
	switch k := g.r.Intn(10); {
	case k < 3: // plain assignment
		g.pf("%s = %s;", g.scalar(), g.expr(g.cfg.MaxDepth))
	case k < 5: // compound assignment
		ops := []string{"+=", "-=", "^=", "|=", "&="}
		g.pf("%s %s %s;", g.scalar(), ops[g.r.Intn(len(ops))], g.expr(g.cfg.MaxDepth-1))
	case (k == 5 || k == 8) && g.cfg.Switches:
		g.switchStmt()
	case k < 7 && g.cfg.Arrays: // array store
		g.pf("ga[(%s) & 15] = %s;", g.expr(1), g.expr(g.cfg.MaxDepth-1))
	case k < 8: // if/else
		g.pf("if (%s %s %s) {", g.scalar(), g.relop(), g.expr(1))
		saved := g.indent
		g.indent += "\t"
		g.pf("%s = %s;", g.scalar(), g.expr(g.cfg.MaxDepth-1))
		g.indent = saved
		if g.r.Intn(2) == 0 {
			g.pf("} else {")
			g.indent += "\t"
			g.pf("%s = %s;", g.scalar(), g.expr(g.cfg.MaxDepth-1))
			g.indent = saved
		}
		g.pf("}")
	case loops > 0: // counted loop
		iv := fmt.Sprintf("i%d", g.loopN)
		g.loopN++
		bound := 2 + g.r.Intn(14)
		if g.cfg.UnrollFriendly {
			bound = 4 * (1 + g.r.Intn(4))
		}
		g.pf("int %s;", iv)
		g.pf("for (%s = 0; %s < %d; %s++) {", iv, iv, bound, iv)
		saved := g.indent
		g.indent += "\t"
		g.scals = append(g.scals, iv)
		g.loopDepth++
		inner := 1 + g.r.Intn(3)
		for j := 0; j < inner; j++ {
			g.stmt(loops - 1)
		}
		g.loopDepth--
		g.scals = g.scals[:len(g.scals)-1]
		g.indent = saved
		g.pf("}")
	default:
		g.pf("%s = %s;", g.scalar(), g.expr(g.cfg.MaxDepth))
	}
}

// straightStmt emits the fusion-friendly extreme: plain scalar and
// array arithmetic only, optionally wrapped in one hot loop so the long
// straightline body dominates the dynamic stream.
func (g *gen) straightStmt(loops int) {
	g.mark("straightline")
	if loops > 0 && g.loopDepth == 0 && g.r.Intn(3) == 0 {
		iv := fmt.Sprintf("i%d", g.loopN)
		g.loopN++
		bound := 16 + g.r.Intn(48)
		g.pf("int %s;", iv)
		g.pf("for (%s = 0; %s < %d; %s++) {", iv, iv, bound, iv)
		saved := g.indent
		g.indent += "\t"
		g.scals = append(g.scals, iv)
		g.loopDepth++
		inner := 8 + g.r.Intn(g.cfg.MaxStmts)
		for j := 0; j < inner; j++ {
			g.straightStmt(0)
		}
		g.loopDepth--
		g.scals = g.scals[:len(g.scals)-1]
		g.indent = saved
		g.pf("}")
		return
	}
	switch g.r.Intn(5) {
	case 0:
		ops := []string{"+=", "-=", "^=", "|=", "&="}
		g.pf("%s %s %s;", g.scalar(), ops[g.r.Intn(len(ops))], g.expr(g.cfg.MaxDepth))
	case 1:
		if g.cfg.Arrays {
			g.pf("ga[(%s) & 15] = %s;", g.expr(1), g.expr(g.cfg.MaxDepth))
			return
		}
		fallthrough
	default:
		g.pf("%s = %s;", g.scalar(), g.expr(g.cfg.MaxDepth))
	}
}

// branchyStmt emits the fusion-hostile extreme: nearly every statement
// is a conditional guarding a single assignment, so basic blocks hold
// one or two instructions and almost no adjacent pair is fusible.
func (g *gen) branchyStmt(loops int) {
	g.mark("branch-dense")
	switch k := g.r.Intn(8); {
	case k < 5:
		g.pf("if (%s %s %s) {", g.scalar(), g.relop(), g.leaf())
		saved := g.indent
		g.indent += "\t"
		g.pf("%s = %s;", g.scalar(), g.expr(1))
		g.indent = saved
		if g.r.Intn(2) == 0 {
			g.pf("} else {")
			g.indent += "\t"
			g.pf("%s = %s;", g.scalar(), g.expr(1))
			g.indent = saved
		}
		g.pf("}")
	case k < 7 && loops > 0:
		iv := fmt.Sprintf("i%d", g.loopN)
		g.loopN++
		bound := 2 + g.r.Intn(10)
		g.pf("int %s;", iv)
		g.pf("for (%s = 0; %s < %d; %s++) {", iv, iv, bound, iv)
		saved := g.indent
		g.indent += "\t"
		g.scals = append(g.scals, iv)
		g.loopDepth++
		inner := 1 + g.r.Intn(3)
		for j := 0; j < inner; j++ {
			g.branchyStmt(loops - 1)
		}
		g.loopDepth--
		g.scals = g.scals[:len(g.scals)-1]
		g.indent = saved
		g.pf("}")
	default:
		g.pf("%s = %s;", g.scalar(), g.expr(1))
	}
}

// switchStmt emits one of three switch shapes. Every shape keeps at
// least 4 cases whose value span stays within 3x the case count, so the
// compiler always lowers it to the bound-check + scaled-load + jr
// jump-table idiom rather than a compare chain — the construct the
// decompiler's switch-table recovery must resolve.
func (g *gen) switchStmt() {
	if g.loopDepth > 0 {
		g.mark("switch-in-loop")
	}
	tgt := g.scalar()
	switch g.r.Intn(3) {
	case 0:
		// Dense: consecutive cases 0..5 under an &7 tag.
		g.mark("switch-dense")
		g.pf("switch ((%s) & 7) {", g.expr(1))
		for c := 0; c < 6; c++ {
			g.pf("case %d: %s = %s; break;", c, tgt, g.expr(1))
		}
		g.pf("default: %s = %s; break;", tgt, g.expr(1))
		g.pf("}")
	case 1:
		// Sparse: 5-7 distinct values from 0..15 under an &15 tag. The
		// span is at most 15 <= 3*5, so the table (with default-filled
		// holes) is still emitted.
		g.mark("switch-sparse")
		n := 5 + g.r.Intn(3)
		vals := g.r.Perm(16)[:n]
		sort.Ints(vals)
		g.pf("switch ((%s) & 15) {", g.expr(1))
		for _, c := range vals {
			g.pf("case %d: %s = %s; break;", c, tgt, g.expr(1))
		}
		g.pf("default: %s = %s; break;", tgt, g.expr(1))
		g.pf("}")
	default:
		// Dense with fallthrough arms: case 1 always falls through (so
		// the shape is present in every such switch) and other early
		// cases may; a fallthrough case's successor block has two
		// incoming dispatch paths.
		g.mark("switch-fallthrough")
		g.pf("switch ((%s) & 7) {", g.expr(1))
		for c := 0; c < 6; c++ {
			if c == 1 || (c < 5 && g.r.Intn(3) == 0) {
				g.pf("case %d: %s = %s;", c, tgt, g.expr(1))
			} else {
				g.pf("case %d: %s = %s; break;", c, tgt, g.expr(1))
			}
		}
		g.pf("default: %s = %s; break;", tgt, g.expr(1))
		g.pf("}")
	}
}

func (g *gen) scalar() string {
	// Never assign to n or a live loop variable (loop vars sit at the
	// tail of scals; exclude the last entry while inside a loop to keep
	// trip counts constant). Assigning the outermost 4 names is enough.
	return g.scals[g.r.Intn(4)]
}

func (g *gen) relop() string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	return ops[g.r.Intn(len(ops))]
}

func (g *gen) expr(depth int) string {
	if depth <= 0 {
		return g.leaf()
	}
	switch g.r.Intn(8) {
	case 0:
		return g.leaf()
	case 1:
		// The space keeps "-(-x)" from lexing as a "--" decrement.
		return fmt.Sprintf("(- %s)", g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(~%s)", g.expr(depth-1))
	case 3:
		if g.cfg.Arrays {
			return fmt.Sprintf("ga[(%s) & 15]", g.expr(depth-1))
		}
		return g.leaf()
	case 4:
		if g.cfg.Arrays {
			return fmt.Sprintf("gb[(%s) & 7]", g.expr(depth-1))
		}
		return g.leaf()
	case 5:
		// Shift by a masked amount keeps semantics identical everywhere.
		dirs := []string{"<<", ">>"}
		return fmt.Sprintf("(%s %s ((%s) & 15))", g.expr(depth-1), dirs[g.r.Intn(2)], g.leaf())
	case 6:
		// Multiplication by a small constant exercises strength
		// reduction and promotion.
		return fmt.Sprintf("(%s * %d)", g.expr(depth-1), g.r.Intn(21))
	default:
		ops := []string{"+", "-", "&", "|", "^"}
		return fmt.Sprintf("(%s %s %s)",
			g.expr(depth-1), ops[g.r.Intn(len(ops))], g.expr(depth-1))
	}
}

func (g *gen) leaf() string {
	if g.r.Intn(3) == 0 {
		return fmt.Sprintf("%d", g.r.Intn(256)-128)
	}
	return g.scals[g.r.Intn(len(g.scals))]
}
