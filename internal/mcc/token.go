// Package mcc implements the MicroC compiler: a small C-subset front end
// with a three-address-code middle end and a MIPS back end, supporting four
// optimization levels O0–O3.
//
// mcc stands in for "any software compiler" in the reproduced paper's tool
// flow: the decompiler and partitioner consume only the binaries mcc emits,
// never its internal representations. The optimization levels matter
// because the paper studies how compiler optimizations interact with
// binary-level synthesis:
//
//	O0  naive code, every local lives in a stack slot
//	O1  register allocation, constant folding/propagation, copy
//	    propagation, dead code elimination
//	O2  O1 + local common subexpression elimination + strength reduction
//	    (multiplication/division by constants become shift/add sequences,
//	    which the decompiler's strength promotion must undo)
//	O3  O2 + loop unrolling of small counted loops (which the decompiler's
//	    loop rerolling must undo)
package mcc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokKeyword
	tokPunct
	tokString
	tokChar
)

type token struct {
	kind tokKind
	op   binOp // the binary operator a tokPunct spells, or opNone
	text string
	val  int64 // for tokNumber and tokChar
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokNumber:
		return fmt.Sprintf("number %s", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

var keywords = map[string]bool{
	"int": true, "uint": true, "short": true, "ushort": true,
	"char": true, "uchar": true, "void": true,
	"if": true, "else": true, "while": true, "for": true, "do": true,
	"switch": true, "case": true, "default": true,
	"break": true, "continue": true, "return": true,
}

// multi-character punctuators, longest first.
var puncts = []string{
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "{", "}", "[", "]", ";", ",", ":", "?",
}

// binOp identifies a binary operator punctuator; 0 is no operator. The
// lexer tags each token with its id once, so the parser's precedence
// climbing reads a small integer instead of comparing operator strings
// at every level.
type binOp uint8

// binOpPrec gives each binary operator its precedence, from 1 (lowest)
// to 10 (highest).
var binOpPrec = map[string]int8{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

// punct is one punctuator spelling with its binary-operator id.
type punct struct {
	text string
	op   binOp
}

// Byte-indexed lexer tables, built once from the predicates and lists
// above. Identifier and number classes keep unicode's answers for every
// byte value, so Latin-1 letter bytes (0xaa, 0xc0, ...) still start and
// continue identifiers. identCont holds every identStart byte, so an
// identifier always consumes its first byte. punctsByFirst buckets the
// punctuators by their
// first byte in puncts' longest-first order. binPrec is indexed by
// binOp; entry 0, no operator, has precedence 0.
var (
	identStart    [256]bool
	digitStart    [256]bool
	identCont     [256]bool
	punctsByFirst [256][]punct
	binPrec       = []int8{0}
)

func init() {
	for c := 0; c < 256; c++ {
		identStart[c] = unicode.IsLetter(rune(c)) || c == '_'
		digitStart[c] = unicode.IsDigit(rune(c))
		identCont[c] = c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == 'x' || c == 'X'
	}
	for _, p := range puncts {
		var op binOp
		if prec, ok := binOpPrec[p]; ok {
			op = binOp(len(binPrec))
			binPrec = append(binPrec, prec)
		}
		punctsByFirst[p[0]] = append(punctsByFirst[p[0]], punct{text: p, op: op})
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

// lex tokenizes src. It returns a descriptive error with line/column on any
// malformed input.
func lex(src string) ([]token, error) {
	lx := &lexer{src: src, line: 1, col: 1, toks: make([]token, 0, tokenCap(len(src)))}
	for {
		lx.skipSpaceAndComments()
		if lx.pos >= len(lx.src) {
			lx.toks = append(lx.toks, token{kind: tokEOF, line: lx.line, col: lx.col})
			return lx.toks, nil
		}
		if err := lx.next(); err != nil {
			return nil, err
		}
	}
}

// tokenCap is the token-slice capacity lex reserves for a source of n
// bytes: one token per 1.75 bytes, plus the EOF token and slack for tiny
// sources. The suite kernels run about 3.3 bytes per token; generated
// programs, dense with short names and operators, reach 1.86, so neither
// regrows the slice.
func tokenCap(n int) int { return n*4/7 + 16 }

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("mcc: %d:%d: %s", lx.line, lx.col, fmt.Sprintf(format, args...))
}

func (lx *lexer) advance(n int) {
	for i := 0; i < n && lx.pos < len(lx.src); i++ {
		if lx.src[lx.pos] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		lx.pos++
	}
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
			lx.col++
		case c == '\n':
			lx.pos++
			lx.line++
			lx.col = 1
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
				lx.col++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			lx.advance(2)
			for lx.pos+1 < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/') {
				lx.advance(1)
			}
			lx.advance(2)
		default:
			return
		}
	}
}

// scanIdent consumes identifier-continuation bytes, none of which is a
// newline, and returns the text from start.
func (lx *lexer) scanIdent(start int) string {
	for lx.pos < len(lx.src) && identCont[lx.src[lx.pos]] {
		lx.pos++
	}
	lx.col += lx.pos - start
	return lx.src[start:lx.pos]
}

func (lx *lexer) next() error {
	line, col := lx.line, lx.col
	c := lx.src[lx.pos]
	switch {
	case identStart[c]:
		text := lx.scanIdent(lx.pos)
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		lx.toks = append(lx.toks, token{kind: kind, text: text, line: line, col: col})
		return nil
	case digitStart[c]:
		text := lx.scanIdent(lx.pos)
		// Allow trailing u/U suffix as in C.
		numText := strings.TrimRight(text, "uU")
		v, err := strconv.ParseInt(numText, 0, 64)
		if err != nil {
			return lx.errf("bad number literal %q", text)
		}
		if v > 0xffffffff || v < -(1<<31) {
			return lx.errf("number %q out of 32-bit range", text)
		}
		lx.toks = append(lx.toks, token{kind: tokNumber, text: text, val: v, line: line, col: col})
		return nil
	case c == '\'':
		lx.advance(1)
		if lx.pos >= len(lx.src) {
			return lx.errf("unterminated character literal")
		}
		var v int64
		if lx.src[lx.pos] == '\\' {
			lx.advance(1)
			if lx.pos >= len(lx.src) {
				return lx.errf("unterminated character literal")
			}
			switch lx.src[lx.pos] {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case '0':
				v = 0
			case '\\':
				v = '\\'
			case '\'':
				v = '\''
			default:
				return lx.errf("unknown escape \\%c", lx.src[lx.pos])
			}
		} else {
			v = int64(lx.src[lx.pos])
		}
		lx.advance(1)
		if lx.pos >= len(lx.src) || lx.src[lx.pos] != '\'' {
			return lx.errf("unterminated character literal")
		}
		lx.advance(1)
		lx.toks = append(lx.toks, token{kind: tokChar, text: "'", val: v, line: line, col: col})
		return nil
	}
	rest := lx.src[lx.pos:]
	for _, p := range punctsByFirst[c] {
		if strings.HasPrefix(rest, p.text) {
			lx.pos += len(p.text)
			lx.col += len(p.text)
			lx.toks = append(lx.toks, token{kind: tokPunct, op: p.op, text: p.text, line: line, col: col})
			return nil
		}
	}
	return lx.errf("unexpected character %q", c)
}
