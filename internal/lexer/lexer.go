// Package lexer implements the MiniC scanner. It converts source text into
// a stream of tokens, handling C comments, character/string escapes, and
// decimal/hex/octal integer literals.
package lexer

import (
	"fmt"
	"strings"

	"inlinec/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniC source text.
type Lexer struct {
	src  string
	file string
	off  int // byte offset of next unread character
	line int
	col  int
	errs []*Error
}

// New returns a lexer over src; file names the source for positions.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) match(c byte) bool {
	if l.peek() == c {
		l.advance()
		return true
	}
	return false
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isHex(c byte) bool    { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdent(c byte) bool  { return isLetter(c) || isDigit(c) }

// skipSpace consumes whitespace, // comments, /* */ comments, and
// preprocessor-style lines beginning with '#' (MiniC has no preprocessor;
// such lines are treated as comments so that sources may carry #-pragmas).
func (l *Lexer) skipSpace() {
	for {
		switch c := l.peek(); {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		case c == '#' && l.col == 1:
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpace()
	pos := l.pos()
	c := l.peek()
	switch {
	case c == 0:
		return token.Token{Kind: token.EOF, Pos: pos}
	case isLetter(c):
		return l.scanIdent(pos)
	case isDigit(c):
		return l.scanNumber(pos)
	case c == '\'':
		return l.scanChar(pos)
	case c == '"':
		return l.scanString(pos)
	}
	l.advance()
	mk := func(k token.Kind, text string) token.Token {
		return token.Token{Kind: k, Text: text, Pos: pos}
	}
	switch c {
	case '(':
		return mk(token.LParen, "(")
	case ')':
		return mk(token.RParen, ")")
	case '{':
		return mk(token.LBrace, "{")
	case '}':
		return mk(token.RBrace, "}")
	case '[':
		return mk(token.LBracket, "[")
	case ']':
		return mk(token.RBracket, "]")
	case ',':
		return mk(token.Comma, ",")
	case ';':
		return mk(token.Semi, ";")
	case ':':
		return mk(token.Colon, ":")
	case '?':
		return mk(token.Question, "?")
	case '~':
		return mk(token.Tilde, "~")
	case '.':
		if l.peek() == '.' && l.peek2() == '.' {
			l.advance()
			l.advance()
			return mk(token.Ellipsis, "...")
		}
		return mk(token.Dot, ".")
	case '+':
		if l.match('+') {
			return mk(token.PlusPlus, "++")
		}
		if l.match('=') {
			return mk(token.PlusEq, "+=")
		}
		return mk(token.Plus, "+")
	case '-':
		if l.match('-') {
			return mk(token.MinusMinus, "--")
		}
		if l.match('=') {
			return mk(token.MinusEq, "-=")
		}
		if l.match('>') {
			return mk(token.Arrow, "->")
		}
		return mk(token.Minus, "-")
	case '*':
		if l.match('=') {
			return mk(token.StarEq, "*=")
		}
		return mk(token.Star, "*")
	case '/':
		if l.match('=') {
			return mk(token.SlashEq, "/=")
		}
		return mk(token.Slash, "/")
	case '%':
		if l.match('=') {
			return mk(token.PercentEq, "%=")
		}
		return mk(token.Percent, "%")
	case '&':
		if l.match('&') {
			return mk(token.AndAnd, "&&")
		}
		if l.match('=') {
			return mk(token.AmpEq, "&=")
		}
		return mk(token.Amp, "&")
	case '|':
		if l.match('|') {
			return mk(token.OrOr, "||")
		}
		if l.match('=') {
			return mk(token.PipeEq, "|=")
		}
		return mk(token.Pipe, "|")
	case '^':
		if l.match('=') {
			return mk(token.CaretEq, "^=")
		}
		return mk(token.Caret, "^")
	case '!':
		if l.match('=') {
			return mk(token.NotEq, "!=")
		}
		return mk(token.Bang, "!")
	case '=':
		if l.match('=') {
			return mk(token.EqEq, "==")
		}
		return mk(token.Assign, "=")
	case '<':
		if l.match('<') {
			if l.match('=') {
				return mk(token.ShlEq, "<<=")
			}
			return mk(token.Shl, "<<")
		}
		if l.match('=') {
			return mk(token.Le, "<=")
		}
		return mk(token.Lt, "<")
	case '>':
		if l.match('>') {
			if l.match('=') {
				return mk(token.ShrEq, ">>=")
			}
			return mk(token.Shr, ">>")
		}
		if l.match('=') {
			return mk(token.Ge, ">=")
		}
		return mk(token.Gt, ">")
	}
	l.errorf(pos, "illegal character %q", string(rune(c)))
	return token.Token{Kind: token.Illegal, Text: string(rune(c)), Pos: pos}
}

func (l *Lexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	for isIdent(l.peek()) {
		l.advance()
	}
	text := l.src[start:l.off]
	if k, ok := token.Keywords[text]; ok {
		return token.Token{Kind: k, Text: text, Pos: pos}
	}
	return token.Token{Kind: token.Ident, Text: text, Pos: pos}
}

func (l *Lexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	var val int64
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		if !isHex(l.peek()) {
			l.errorf(pos, "malformed hex literal")
		}
		for isHex(l.peek()) {
			c := l.advance()
			val = val*16 + int64(hexVal(c))
		}
	} else if l.peek() == '0' {
		// Octal (or plain zero).
		for isDigit(l.peek()) {
			c := l.advance()
			if c >= '8' {
				l.errorf(pos, "invalid octal digit %q", string(rune(c)))
			}
			val = val*8 + int64(c-'0')
		}
	} else {
		for isDigit(l.peek()) {
			c := l.advance()
			val = val*10 + int64(c-'0')
		}
	}
	// Ignore C integer suffixes.
	for l.peek() == 'l' || l.peek() == 'L' || l.peek() == 'u' || l.peek() == 'U' {
		l.advance()
	}
	return token.Token{Kind: token.Int, Text: l.src[start:l.off], Pos: pos, Val: val}
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

// scanEscape decodes one escape sequence after a backslash has been consumed.
func (l *Lexer) scanEscape(pos token.Pos) byte {
	c := l.advance()
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case 'a':
		return 7
	case 'b':
		return 8
	case 'f':
		return 12
	case 'v':
		return 11
	case '\\', '\'', '"', '?':
		return c
	case 'x':
		v := 0
		for isHex(l.peek()) {
			v = v*16 + hexVal(l.advance())
		}
		return byte(v)
	}
	l.errorf(pos, "unknown escape sequence \\%s", string(rune(c)))
	return c
}

func (l *Lexer) scanChar(pos token.Pos) token.Token {
	l.advance() // opening quote
	var v byte
	switch c := l.peek(); c {
	case 0, '\n':
		l.errorf(pos, "unterminated character literal")
		return token.Token{Kind: token.Illegal, Pos: pos}
	case '\\':
		l.advance()
		v = l.scanEscape(pos)
	default:
		v = l.advance()
	}
	if !l.match('\'') {
		l.errorf(pos, "unterminated character literal")
	}
	return token.Token{Kind: token.Int, Text: fmt.Sprintf("'%c'", v), Pos: pos, Val: int64(v)}
}

func (l *Lexer) scanString(pos token.Pos) token.Token {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		c := l.peek()
		if c == 0 || c == '\n' {
			l.errorf(pos, "unterminated string literal")
			break
		}
		if c == '"' {
			l.advance()
			break
		}
		if c == '\\' {
			l.advance()
			sb.WriteByte(l.scanEscape(pos))
			continue
		}
		sb.WriteByte(l.advance())
	}
	return token.Token{Kind: token.String, Text: sb.String(), Pos: pos, Str: sb.String()}
}

// ScanAll tokenizes the whole input, returning the tokens (ending with EOF)
// and any lexical errors.
func ScanAll(file, src string) ([]token.Token, []*Error) {
	l := New(file, src)
	// Sized for dense code, about two source bytes per token, so the
	// slice is allocated once instead of through a chain of doublings
	// whose discarded arrays were the front end's largest garbage.
	toks := make([]token.Token, 0, len(src)/2+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return toks, l.Errors()
}
