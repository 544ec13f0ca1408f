package dopt

import "binpart/internal/ir"

// Report aggregates what every decompiler optimization did to a function.
type Report struct {
	// MovesFolded counts temp-and-move pairs collapsed by FoldMoves.
	MovesFolded int
	// DeadRemoved counts instructions removed by dead code elimination.
	DeadRemoved int
	Stack       StackReport
	Reroll      RerollReport
	Promote     PromoteReport
	// StrengthReduced counts power-of-two mul/div/rem turned into shifts.
	StrengthReduced int
	Width           WidthReport
}

// Config toggles individual passes off for ablation studies; the zero
// value runs the full pipeline.
type Config struct {
	NoStackRemoval bool
	NoReroll       bool
	NoPromote      bool
	NoStrengthRed  bool
	NoWidthReduce  bool
}

// Optimize runs the full decompiler optimization pipeline on f in the
// paper's order: instruction-set overhead removal (constant propagation,
// stack operation removal, strength reduction, operator size reduction)
// and compiler-optimization undoing (loop rerolling, strength promotion).
func Optimize(f *ir.Func) Report {
	return OptimizeWith(f, Config{})
}

// OptimizeWith runs the pipeline with selected passes disabled.
func OptimizeWith(f *ir.Func, cfg Config) Report {
	var rep Report
	// One liveness workspace serves every FoldMoves and DeadCode round of
	// the pipeline; it resizes when stack-slot promotion adds locations.
	lv := new(liveness)

	// Instruction-set overhead removal.
	ConstProp(f)
	rep.MovesFolded, rep.DeadRemoved = foldThenSweep(f, lv)
	cleanup(f, lv)
	if !cfg.NoStackRemoval {
		rep.Stack = RemoveStackOps(f)
		cleanup(f, lv)
	}

	// Undo compiler optimizations.
	if !cfg.NoReroll {
		rep.Reroll = Reroll(f)
	}
	if !cfg.NoPromote {
		rep.Promote = PromoteStrength(f)
	}
	cleanup(f, lv)

	// Final synthesis-oriented rewrites and annotations.
	if !cfg.NoStrengthRed {
		rep.StrengthReduced = StrengthReduce(f)
		cleanup(f, lv)
	}
	if !cfg.NoWidthReduce {
		rep.Width = ReduceWidths(f)
	}
	return rep
}
