package alias

import (
	"testing"

	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
)

func analyzed(t *testing.T, src, fn string) (*Info, *ir.Func) {
	t.Helper()
	img, err := mcc.Compile(src, mcc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decompile.Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func(fn)
	if f == nil {
		t.Fatalf("%s not recovered", fn)
	}
	dopt.Optimize(f)
	return Analyze(f, img, ir.FindLoops(f)), f
}

const twoArrays = `
	int src[32];
	int dst[32];
	int other[8];
	int kernel(int n) {
		int i;
		for (i = 0; i < 32; i++) { dst[i] = src[i] * 3; }
		return dst[0];
	}
	int main() { return kernel(1); }
`

func TestResolvesArrayBases(t *testing.T) {
	info, f := analyzed(t, twoArrays, "kernel")
	var loads, stores int
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.Load:
				r := info.RefOf(in)
				if !r.Known {
					t.Errorf("unresolved load %v", in)
					continue
				}
				if r.Sym == "src" {
					loads++
					if r.Stride != 4 {
						t.Errorf("src load stride = %d, want 4", r.Stride)
					}
				}
			case ir.Store:
				r := info.RefOf(in)
				if r.Known && r.Sym == "dst" {
					stores++
				}
			}
		}
	}
	if loads == 0 {
		t.Error("no loads resolved to src")
	}
	if stores == 0 {
		t.Error("no stores resolved to dst")
	}
}

func TestFootprint(t *testing.T) {
	info, f := analyzed(t, twoArrays, "kernel")
	syms, unknown := info.FuncFootprint(f)
	if unknown {
		t.Errorf("footprint has unknown accesses")
	}
	want := map[string]bool{"src": true, "dst": true}
	for _, s := range syms {
		if !want[s] {
			t.Errorf("unexpected footprint member %q", s)
		}
		delete(want, s)
	}
	for s := range want {
		t.Errorf("footprint missing %q", s)
	}
}

func TestConflicts(t *testing.T) {
	a := Ref{Sym: "x", Known: true}
	b := Ref{Sym: "y", Known: true}
	u := Ref{}
	if a.Conflicts(b) {
		t.Error("distinct objects conflict")
	}
	if !a.Conflicts(a) {
		t.Error("same object does not conflict")
	}
	if !a.Conflicts(u) || !u.Conflicts(b) {
		t.Error("unknown must conflict with everything")
	}
}

func TestPointerParameterIsUnknown(t *testing.T) {
	// A pointer parameter could alias anything; the analysis must not
	// claim knowledge.
	src := `
		int buf[16];
		int kernel(int *p) {
			int s = 0;
			int i;
			for (i = 0; i < 16; i++) { s += p[i]; }
			return s;
		}
		int main() { return kernel(buf); }
	`
	info, f := analyzed(t, src, "kernel")
	_, unknown := info.FuncFootprint(f)
	if !unknown {
		t.Error("pointer-parameter accesses reported as fully known")
	}
}

func TestStackAccessesResolveToStack(t *testing.T) {
	// O0 keeps locals in frame slots accessed via computed sp addresses;
	// after optimization a local array stays on the stack.
	src := `
		int kernel(int n) {
			int a[8];
			int i;
			for (i = 0; i < 8; i++) { a[i] = i * n; }
			int s = 0;
			for (i = 0; i < 8; i++) { s += a[i]; }
			return s;
		}
		int main() { return kernel(2); }
	`
	info, f := analyzed(t, src, "kernel")
	foundStack := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Load || in.Op == ir.Store {
				if r := info.RefOf(in); r.Known && r.Sym == "<stack>" {
					foundStack = true
				}
			}
		}
	}
	if !foundStack {
		t.Error("no stack-resolved access found for local array")
	}
}
