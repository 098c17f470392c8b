package sql

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // operators and punctuation
)

type token struct {
	kind tokenKind
	text string // keywords uppercased; identifiers as written
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords recognised by the parser. Identifiers matching these (case-
// insensitively) lex as keywords. JOIN has no clause of its own (joins
// are comma joins), but it stays reserved so that "a JOIN b" is refused
// at JOIN instead of reading JOIN as the alias of a.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true,
	"INTO": true, "VALUES": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "INDEX": true,
	"ON": true, "DROP": true, "AND": true, "OR": true, "NOT": true,
	"NULL": true, "TRUE": true, "FALSE": true, "AS": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "GROUP": true, "DISTINCT": true, "JOIN": true, "IN": true,
	"INT": true, "FLOAT": true, "TEXT": true, "BOOL": true, "BYTES": true,
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true,
	"IF": true, "EXISTS": true,
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) error(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

// lex tokenises the whole input up front.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.lexString(start)
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		return l.lexNumber(start)
	case isIdentStart(c):
		return l.lexIdent(start)
	case c == '"':
		return l.lexQuotedIdent(start)
	default:
		return l.lexSymbol(start)
	}
}

// An unquoted identifier is ASCII letters, digits and '_', not starting
// with a digit: all that XQ2SQL emits. Any other name is double-quoted
// (identString does so when printing).
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || '0' <= c && c <= '9'
}

func (l *lexer) lexIdent(start int) (token, error) {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		return token{kind: tokKeyword, text: upper, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}

// lexQuotedIdent lexes a "double quoted" identifier (allows dots and
// mixed case, used for document paths stored as table-ish names).
func (l *lexer) lexQuotedIdent(start int) (token, error) {
	l.pos++ // opening quote
	for l.pos < len(l.src) && l.src[l.pos] != '"' {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{}, l.error(start, "unterminated quoted identifier")
	}
	text := l.src[start+1 : l.pos]
	l.pos++
	return token{kind: tokIdent, text: text, pos: start}, nil
}

func (l *lexer) lexString(start int) (token, error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // escaped quote
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return token{}, l.error(start, "unterminated string literal")
}

func (l *lexer) lexNumber(start int) (token, error) {
	kind := tokInt
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		kind = tokFloat
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		kind = tokFloat
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		digits := false
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
			digits = true
		}
		if !digits {
			return token{}, l.error(start, "malformed exponent")
		}
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexSymbol(start int) (token, error) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		return token{kind: tokSymbol, text: two, pos: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '-', '=', '<', '>', '.', ';':
		l.pos++
		return token{kind: tokSymbol, text: string(c), pos: start}, nil
	}
	_, size := utf8.DecodeRuneInString(l.src[l.pos:])
	return token{}, l.error(start, "unexpected character %q", l.src[l.pos:l.pos+size])
}
