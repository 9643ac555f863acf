// Package parser implements the .mdq text format for multidimensional
// ontologies: dimension declarations, categorical relations with data,
// dimensional rules, EGDs, negative constraints and named queries. The
// cmd/mdq CLI and the examples load ontologies from this format.
//
// Syntax sketch (see the package tests and the examples directory for
// complete files):
//
//	# the Hospital dimension of Fig. 1
//	dimension Hospital {
//	  category Ward; category Unit;
//	  Ward -> Unit;
//	  member W1 in Ward; member Standard in Unit;
//	  rollup W1 -> Standard;
//	}
//	relation PatientWard(Ward: Hospital.Ward, Day: Time.Day; Patient) {
//	  (W1, "Sep/5", "Tom Waits");
//	}
//	rule r7: PatientUnit(u, d; p) <- PatientWard(w, d; p), UnitWard(u, w).
//	egd e6: t = t2 <- Thermometer(w, t; n), Thermometer(w2, t2; n2),
//	                  UnitWard(u, w), UnitWard(u, w2).
//	constraint closed: ! <- PatientWard(w, d; p), UnitWard(Intensive, w),
//	                        MonthDay(m, d), m >= "2005-08".
//	query marks(d) <- Shifts(W1, d, Mark, s).
//
// Variables are lowercase identifiers; constants are quoted strings,
// numbers, or identifiers starting with an uppercase letter (matching
// the paper's notation: u, d, p are variables, Intensive is a member).
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token types.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokSemicolon
	tokColon
	tokDot
	tokArrow   // ->
	tokImplied // <-
	tokBang    // !
	tokEq      // =
	tokNe      // !=
	tokLt      // <
	tokLe      // <=
	tokGt      // >
	tokGe      // >=
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokComma:
		return "','"
	case tokSemicolon:
		return "';'"
	case tokColon:
		return "':'"
	case tokDot:
		return "'.'"
	case tokArrow:
		return "'->'"
	case tokImplied:
		return "'<-'"
	case tokBang:
		return "'!'"
	case tokEq:
		return "'='"
	case tokNe:
		return "'!='"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	default:
		return "unknown token"
	}
}

// token is one lexical unit with its source position.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// lexer turns input text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Error is a parse or lex error with source position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("mdq:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errorf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			for {
				c2, ok2 := l.peekByte()
				if !ok2 || c2 == '\n' {
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	mk := func(kind tokenKind, text string) token {
		return token{kind: kind, text: text, line: line, col: col}
	}
	switch {
	case c == '(':
		l.advance()
		return mk(tokLParen, "("), nil
	case c == ')':
		l.advance()
		return mk(tokRParen, ")"), nil
	case c == '{':
		l.advance()
		return mk(tokLBrace, "{"), nil
	case c == '}':
		l.advance()
		return mk(tokRBrace, "}"), nil
	case c == ',':
		l.advance()
		return mk(tokComma, ","), nil
	case c == ';':
		l.advance()
		return mk(tokSemicolon, ";"), nil
	case c == ':':
		l.advance()
		return mk(tokColon, ":"), nil
	case c == '.':
		l.advance()
		return mk(tokDot, "."), nil
	case c == '!':
		l.advance()
		if c2, ok2 := l.peekByte(); ok2 && c2 == '=' {
			l.advance()
			return mk(tokNe, "!="), nil
		}
		return mk(tokBang, "!"), nil
	case c == '=':
		l.advance()
		return mk(tokEq, "="), nil
	case c == '-':
		l.advance()
		if c2, ok2 := l.peekByte(); ok2 && c2 == '>' {
			l.advance()
			return mk(tokArrow, "->"), nil
		}
		return token{}, l.errorf("unexpected '-' (did you mean '->'?)")
	case c == '<':
		l.advance()
		if c2, ok2 := l.peekByte(); ok2 {
			switch c2 {
			case '-':
				l.advance()
				return mk(tokImplied, "<-"), nil
			case '=':
				l.advance()
				return mk(tokLe, "<="), nil
			}
		}
		return mk(tokLt, "<"), nil
	case c == '>':
		l.advance()
		if c2, ok2 := l.peekByte(); ok2 && c2 == '=' {
			l.advance()
			return mk(tokGe, ">="), nil
		}
		return mk(tokGt, ">"), nil
	case c == '"':
		return l.lexString(line, col)
	case unicode.IsDigit(rune(c)):
		return l.lexNumber(line, col)
	case isIdentStart(c):
		var b strings.Builder
		for {
			c2, ok2 := l.peekByte()
			if !ok2 || !isIdentPart(c2) {
				break
			}
			b.WriteByte(l.advance())
		}
		return mk(tokIdent, b.String()), nil
	default:
		return token{}, l.errorf("unexpected character %q", string(rune(c)))
	}
}

// lexString reads a double-quoted string. Escapes follow Go's string
// literals (strconv.UnquoteChar), so every constant Term.String quotes
// with strconv.Quote — control characters, invalid UTF-8 bytes and
// unprintable runes included — reads back as the same constant.
func (l *lexer) lexString(line, col int) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok {
			return token{}, &Error{Line: line, Col: col, Msg: "unterminated string"}
		}
		switch c {
		case '"':
			l.advance()
			return token{kind: tokString, text: b.String(), line: line, col: col}, nil
		case '\\':
			escLine, escCol := l.line, l.col
			rest := l.src[l.pos:]
			if len(rest) < 2 {
				return token{}, &Error{Line: line, Col: col, Msg: "unterminated escape"}
			}
			value, multibyte, tail, err := strconv.UnquoteChar(rest, '"')
			if err != nil {
				// Quote at most the backslash and the nine bytes a \U
				// escape takes.
				return token{}, &Error{Line: escLine, Col: escCol, Msg: fmt.Sprintf("invalid escape %q", rest[:min(len(rest), 10)])}
			}
			for range len(rest) - len(tail) {
				l.advance()
			}
			if value < utf8.RuneSelf || !multibyte {
				b.WriteByte(byte(value))
			} else {
				b.WriteRune(value)
			}
			continue
		case '\n':
			return token{}, &Error{Line: line, Col: col, Msg: "newline in string"}
		}
		b.WriteByte(l.advance())
	}
}

func (l *lexer) lexNumber(line, col int) (token, error) {
	var b strings.Builder
	seenDot := false
	for {
		c, ok := l.peekByte()
		if !ok {
			break
		}
		if c == '.' && !seenDot {
			// Lookahead: a digit must follow for this to be part of
			// the number; otherwise the dot is a statement terminator.
			if l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) {
				seenDot = true
				b.WriteByte(l.advance())
				continue
			}
			break
		}
		if !unicode.IsDigit(rune(c)) {
			break
		}
		b.WriteByte(l.advance())
	}
	return token{kind: tokNumber, text: b.String(), line: line, col: col}, nil
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
