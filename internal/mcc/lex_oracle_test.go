package mcc

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// refLexer is the lexer as it was before the byte tables, kept as the
// differential reference: identifier classes ask unicode per byte and a
// punctuator is found by trying every entry of puncts in turn.
type refLexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

func lexRef(src string) ([]token, error) {
	lx := &refLexer{src: src, line: 1, col: 1}
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

func (lx *refLexer) errf(format string, args ...any) error {
	return fmt.Errorf("mcc: %d:%d: %s", lx.line, lx.col, fmt.Sprintf(format, args...))
}

func (lx *refLexer) advance(n int) {
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

func (lx *refLexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance(1)
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance(1)
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

func (lx *refLexer) next() error {
	line, col := lx.line, lx.col
	c := lx.src[lx.pos]
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		start := lx.pos
		for lx.pos < len(lx.src) && (isIdentCharRef(lx.src[lx.pos])) {
			lx.advance(1)
		}
		text := lx.src[start:lx.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		lx.toks = append(lx.toks, token{kind: kind, text: text, line: line, col: col})
		return nil
	case unicode.IsDigit(rune(c)):
		start := lx.pos
		for lx.pos < len(lx.src) && (isIdentCharRef(lx.src[lx.pos])) {
			lx.advance(1)
		}
		text := lx.src[start:lx.pos]
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
	for _, p := range puncts {
		if strings.HasPrefix(lx.src[lx.pos:], p) {
			lx.advance(len(p))
			lx.toks = append(lx.toks, token{kind: tokPunct, text: p, line: line, col: col})
			return nil
		}
	}
	return lx.errf("unexpected character %q", c)
}

func isIdentCharRef(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == 'x' || c == 'X'
}

// LexDiff lexes src with lex and with the reference lexer and describes
// the first difference in tokens or error text, or returns "". A
// binary-operator punctuator must carry an id of its precedence, and no
// other token an id.
func LexDiff(src string) string {
	got, gerr := lex(src)
	want, werr := lexRef(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Sprintf("error %v, reference %v", gerr, werr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d tokens, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		prec := binOpPrec[g.text]
		if g.kind != tokPunct {
			prec = 0
		}
		if (prec != 0) != (g.op != 0) || binPrec[g.op] != prec {
			return fmt.Sprintf("token %d %q has operator id %d (precedence %d)", i, g.text, g.op, binPrec[g.op])
		}
		g.op = 0
		if g != w {
			return fmt.Sprintf("token %d = %+v, reference %+v", i, g, w)
		}
	}
	return ""
}

// LexCapacityHeld reports whether lexing src fits in the token capacity
// lex reserves up front, so the slice never regrew.
func LexCapacityHeld(src string) bool {
	toks, err := lex(src)
	return err == nil && cap(toks) == tokenCap(len(src))
}

// TestLexMatchesReferenceOnEdgeBytes runs the differential over every
// byte value, alone and followed by every fifth byte value, after an
// identifier, a digit, a punctuator and whitespace, and over every pair
// of punctuators: Latin-1 letter bytes start and continue identifiers,
// other bytes at or above 0x80 are errors, and each punctuator prefix
// picks the longest spelling.
func TestLexMatchesReferenceOnEdgeBytes(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, pre := range []string{"", "a", "7", "<", "x ", "\n"} {
			src := pre + string([]byte{byte(c)})
			if d := LexDiff(src); d != "" {
				t.Fatalf("%q: %s", src, d)
			}
			for c2 := 0; c2 < 256; c2 += 5 {
				src2 := src + string([]byte{byte(c2)})
				if d := LexDiff(src2); d != "" {
					t.Fatalf("%q: %s", src2, d)
				}
			}
		}
	}
	for _, p := range puncts {
		for _, q := range puncts {
			if d := LexDiff(p + q); d != "" {
				t.Fatalf("%q: %s", p+q, d)
			}
		}
	}
}

// TestParseErrorsUnchanged pins the error text of malformed expressions,
// recorded from the level-by-level recursive-descent parser that
// precedence climbing replaced.
func TestParseErrorsUnchanged(t *testing.T) {
	for _, c := range []struct{ expr, err string }{
		{"a +", "mcc: 2:12: expected expression, found \";\""},
		{"a * / b", "mcc: 2:13: expected expression, found \"/\""},
		{"(a + b", "mcc: 2:15: expected \")\", found \";\""},
		{"a + b)", "mcc: 2:14: expected \";\", found \")\""},
		{"a ||", "mcc: 2:13: expected expression, found \";\""},
		{"a && || b", "mcc: 2:14: expected expression, found \"||\""},
		{"a == == b", "mcc: 2:14: expected expression, found \"==\""},
		{"a < > b", "mcc: 2:13: expected expression, found \">\""},
		{"a << >> b", "mcc: 2:14: expected expression, found \">>\""},
		{"a ? b", "mcc: 2:14: expected \":\", found \";\""},
		{"a ? b :", "mcc: 2:16: expected expression, found \";\""},
		{"a + (b *", "mcc: 2:17: expected expression, found \";\""},
		{"a[1 + ]", "mcc: 2:15: expected expression, found \"]\""},
		{"f(a +, b)", "mcc: 2:14: expected expression, found \",\""},
		{"-", "mcc: 2:10: expected expression, found \";\""},
		{"a + 1 2", "mcc: 2:15: expected \";\", found number 2"},
		{"a % % b", "mcc: 2:13: expected expression, found \"%\""},
		{"a + b c", "mcc: 2:15: expected \";\", found \"c\""},
		{"a +\n\t\n b @", "mcc: 4:4: unexpected character '@'"},
		{"a | | b", "mcc: 2:13: expected expression, found \"|\""},
		{"a ^ ^ b", "mcc: 2:13: expected expression, found \"^\""},
		{"a !=", "mcc: 2:13: expected expression, found \";\""},
		{"a >= > b", "mcc: 2:14: expected expression, found \">\""},
		{"(int) +", "mcc: 2:16: expected expression, found \";\""},
		{"a + (int)", "mcc: 2:18: expected expression, found \";\""},
		{"a = = b", "mcc: 2:13: expected expression, found \"=\""},
		{"a +=", "mcc: 2:13: expected expression, found \";\""},
		{"a ? : b", "mcc: 2:13: expected expression, found \":\""},
		{"((a)", "mcc: 2:13: expected \")\", found \";\""},
		{"a-- b", "mcc: 2:13: expected \";\", found \"b\""},
		{"a+++", "mcc: 2:13: expected expression, found \";\""},
		{"~ + -", "mcc: 2:14: expected expression, found \";\""},
		{"a <<= b >", "mcc: 2:18: expected expression, found \";\""},
		{"a / (b - )", "mcc: 2:18: expected expression, found \")\""},
		{"a - b - c -", "mcc: 2:20: expected expression, found \";\""},
		{"a * (b + c", "mcc: 2:19: expected \")\", found \";\""},
		{"a || b && ", "mcc: 2:19: expected expression, found \";\""},
		{"0x + a", "mcc: 2:11: bad number literal \"0x\""},
		{"a + 'b", "mcc: 2:15: unterminated character literal"},
		{"a + 99999999999 * b", "mcc: 2:24: number \"99999999999\" out of 32-bit range"},
		{"a...b", "mcc: 2:10: expected \";\", found \"...\""},
		{"a >>> b", "mcc: 2:13: expected expression, found \">\""},
	} {
		_, err := Parse("int f(int a, int b) {\n\treturn " + c.expr + ";\n}\n")
		if fmt.Sprint(err) != c.err {
			t.Errorf("%q: error %v, want %s", c.expr, err, c.err)
		}
	}
}

// exprString prints an expression fully parenthesized.
func exprString(e Expr) string {
	switch e := e.(type) {
	case *NumLit:
		return strconv.Itoa(int(e.Val))
	case *Ident:
		return e.Name
	case *BinExpr:
		return "(" + exprString(e.L) + " " + e.Op + " " + exprString(e.R) + ")"
	case *UnExpr:
		return "(" + e.Op + exprString(e.X) + ")"
	case *AssignExpr:
		return "(" + exprString(e.LV) + " " + e.Op + " " + exprString(e.RV) + ")"
	case *IncDecExpr:
		if e.Post {
			return "(" + exprString(e.LV) + e.Op + ")"
		}
		return "(" + e.Op + exprString(e.LV) + ")"
	case *IndexExpr:
		return exprString(e.Arr) + "[" + exprString(e.Idx) + "]"
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprString(a)
		}
		return e.Name + "(" + strings.Join(args, ", ") + ")"
	case *CastExpr:
		return "((" + e.T.String() + ")" + exprString(e.X) + ")"
	case *CondExpr:
		return "(" + exprString(e.Cond) + " ? " + exprString(e.Then) + " : " + exprString(e.Else) + ")"
	}
	return fmt.Sprintf("<%T>", e)
}

// TestParseExprShapes pins the tree each binary operator builds: ten
// precedence levels, left associativity within a level, and the
// interaction with unary, postfix, ternary and assignment forms.
func TestParseExprShapes(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"a - b - c", "((a - b) - c)"},
		{"a / b / c", "((a / b) / c)"},
		{"a >> b >> c", "((a >> b) >> c)"},
		{"a < b < c", "((a < b) < c)"},
		{"a == b != c", "((a == b) != c)"},
		{"a && b && c", "((a && b) && c)"},
		{"a || b || c", "((a || b) || c)"},
		{"a - b + c * d / e % f", "((a - b) + (((c * d) / e) % f))"},
		{"a || b && c | d ^ e & f == g < h << i + j * k",
			"(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))))"},
		{"a * b + c << d < e == f & g ^ h | i && j || k",
			"((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)"},
		{"a + b * c - d", "((a + (b * c)) - d)"},
		{"-a * b", "((-a) * b)"},
		{"!a == b", "((!a) == b)"},
		{"(a + b) * c", "((a + b) * c)"},
		{"a[b + c] * d", "(a[(b + c)] * d)"},
		{"f(a, b - c) - d", "(f(a, (b - c)) - d)"},
		{"a++ + --b", "((a++) + (--b))"},
		{"(int)a + b", "(((int)a) + b)"},
		{"a ? b : c ? d : e", "(a ? b : (c ? d : e))"},
		{"a || b ? c + d : e", "((a || b) ? (c + d) : e)"},
		{"a = b = c + d", "(a = (b = (c + d)))"},
		{"a += b << c", "(a += (b << c))"},
		{"1 - 2 - 3 * 4 % 5", "((1 - 2) - ((3 * 4) % 5))"},
	} {
		prog, err := Parse("int f(int a, int b) {\n\treturn " + c.src + ";\n}\n")
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got := exprString(prog.Funcs[0].Body.Stmts[0].(*ReturnStmt).X)
		if got != c.want {
			t.Errorf("%q parses as %s, want %s", c.src, got, c.want)
		}
	}
}
