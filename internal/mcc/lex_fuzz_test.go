package mcc_test

import (
	"testing"

	"binpart/internal/bench"
	"binpart/internal/mcc"
	"binpart/internal/progen"
)

// lexCorpus is the suite's kernel sources plus fixed-seed generated
// programs of every shape.
func lexCorpus() []string {
	var srcs []string
	for _, bm := range bench.All() {
		srcs = append(srcs, bm.Source)
	}
	for _, sh := range progen.Shapes() {
		for seed := int64(0); seed < 8; seed++ {
			srcs = append(srcs, progen.Generate(seed, sh.Cfg).Source)
		}
	}
	return srcs
}

// FuzzLexDifferential requires the table-driven lexer to produce the same
// tokens and the same error text as the reference lexer on arbitrary
// bytes, bytes at or above 0x80 included. Run it with
// `go test -run NONE -fuzz FuzzLexDifferential ./internal/mcc`.
func FuzzLexDifferential(f *testing.F) {
	for _, src := range lexCorpus() {
		f.Add(src)
	}
	for _, src := range []string{
		"int \xaa\xb5\xc0 = 1;", "x\xd7y \xf7 \xff", "a<<=b>>=c...d", "'\\q'", "/* open", "0xffu + 0x1_",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := mcc.LexDiff(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
	})
}

// TestLexCorpusMatchesReference runs the lexer differential over the
// corpus, and over each source with a Latin-1 letter, a non-letter high
// byte and a stray punctuator spliced in.
func TestLexCorpusMatchesReference(t *testing.T) {
	for i, src := range lexCorpus() {
		mid := len(src) / 2
		for _, s := range []string{src, src[:mid] + "\xe9" + src[mid:], src[:mid] + "\x80" + src[mid:], src[:mid] + "<<=" + src[mid:]} {
			if d := mcc.LexDiff(s); d != "" {
				t.Fatalf("source %d: %s", i, d)
			}
		}
	}
}

// TestLexCapacityHeld checks that no suite kernel and none of 250
// generated programs per shape outgrows the token capacity lex reserves,
// so the token slice never regrows on them.
func TestLexCapacityHeld(t *testing.T) {
	srcs := lexCorpus()
	for _, sh := range progen.Shapes() {
		for seed := int64(100); seed < 350; seed++ {
			srcs = append(srcs, progen.Generate(seed, sh.Cfg).Source)
		}
	}
	for i, src := range srcs {
		if !mcc.LexCapacityHeld(src) {
			t.Errorf("source %d (%d bytes) regrows the token slice", i, len(src))
		}
	}
}
