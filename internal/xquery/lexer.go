// Package xquery implements the XQuery subset of the paper (Appendix D):
// FLWOR expressions, XPath with child/descendant/attribute axes and
// predicates, quantified expressions, arithmetic and comparison operators,
// direct element constructors, and the built-in functions with SQL
// counterparts. Parent/sibling axes and type expressions are not supported,
// matching the paper's restrictions.
package xquery

import (
	"fmt"
	"strings"
	"unicode"
)

// TokKind classifies lexer tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokVar    // $name
	TokString // 'x' or "x"
	TokNumber
	TokSymbol // punctuation / operators
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokString:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Text
	}
}

// Lexer tokenizes an XQuery (or trigger DDL) source string. The parser
// drives it token by token and can also switch to raw character access for
// direct element constructors.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// SetPos rewinds/advances the raw position (constructor mode).
func (l *Lexer) SetPos(p int) { l.pos = p }

// Src exposes the underlying source.
func (l *Lexer) Src() string { return l.src }

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// (: comments :)
		if c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			end := strings.Index(l.src[l.pos+2:], ":)")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
			continue
		}
		return
	}
}

// twoCharSymbols in match priority order.
var twoCharSymbols = []string{"!=", "<=", ">=", "//", ":="}

// Next scans the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '$':
		l.pos++
		name := l.scanName()
		if name == "" {
			return Token{}, fmt.Errorf("xquery: expected variable name after $ at %d", start)
		}
		return Token{Kind: TokVar, Text: name, Pos: start}, nil
	case c == '\'' || c == '"':
		// The paper renders string literals with doubled single quotes
		// (''default''); treat '' followed by a non-quote as a two-char
		// delimiter.
		if c == '\'' && l.pos+2 < len(l.src) && l.src[l.pos+1] == '\'' && l.src[l.pos+2] != '\'' {
			end := strings.Index(l.src[l.pos+2:], "''")
			if end >= 0 {
				text := l.src[l.pos+2 : l.pos+2+end]
				l.pos += 2 + end + 2
				return Token{Kind: TokString, Text: text, Pos: start}, nil
			}
		}
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			if l.src[l.pos] == c {
				// Doubled quotes escape (SQL style, used in the paper's
				// view('default') examples written as ''default'').
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == c {
					sb.WriteByte(c)
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		return Token{}, fmt.Errorf("xquery: unterminated string at %d", start)
	case c >= '0' && c <= '9':
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case isNameStart(rune(c)):
		name := l.scanName()
		return Token{Kind: TokIdent, Text: name, Pos: start}, nil
	default:
		for _, sym := range twoCharSymbols {
			if strings.HasPrefix(l.src[l.pos:], sym) {
				l.pos += len(sym)
				return Token{Kind: TokSymbol, Text: sym, Pos: start}, nil
			}
		}
		l.pos++
		return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
	}
}

func (l *Lexer) scanName() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if isNameStart(c) || isDigit(l.src[l.pos]) || c == '-' || c == '.' {
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

func isNameStart(c rune) bool {
	return c == '_' || unicode.IsLetter(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
