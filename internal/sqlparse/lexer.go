// Package sqlparse implements the query-language front end: a lexer
// and recursive-descent parser for the SQL subset the paper's examples
// use (SELECT with joins, filters, GROUP BY, ORDER BY, LIMIT) plus the
// FUDJ DDL statements CREATE JOIN and DROP JOIN (§VI-A).
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokPunct
)

// token is one lexical unit.
type token struct {
	kind tokenKind
	text string // keywords are upper-cased, punct verbatim
	pos  int    // byte offset in the input, for error messages
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// keywords recognized by the parser. Anything else alphabetic is an
// identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "INTO": true, "HAVING": true, "DISTINCT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "DESC": true, "ASC": true, "CREATE": true, "DROP": true,
	"JOIN": true, "RETURNS": true, "AT": true, "EXPLAIN": true, "ANALYZE": true,
	"TRUE": true, "FALSE": true, "NULL": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true,
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

// lex tokenizes the whole input.
func lex(in string) ([]token, error) {
	l := &lexer{in: in}
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
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.in) && l.in[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.in) && l.in[l.pos+1] == '*':
			end := strings.Index(l.in[l.pos+2:], "*/")
			if end < 0 {
				return token{}, l.errf(l.pos, "unterminated block comment")
			}
			l.pos += end + 4
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.in[l.pos]

	switch r, size := l.runeAt(l.pos); {
	case isIdentStart(r):
		ascii := size == 1
		for l.pos < len(l.in) {
			r, size := l.runeAt(l.pos)
			if !isIdentPart(r) {
				break
			}
			ascii = ascii && size == 1
			l.pos += size
		}
		word := l.in[start:l.pos]
		if !ascii {
			// Fold first, so the keyword test sees the text the printer
			// emits: "LİMIT" lowers to the keyword "limit".
			word = strings.ToLower(word)
		}
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return token{kind: tokKeyword, text: upper, pos: start}, nil
		}
		return token{kind: tokIdent, text: strings.ToLower(word), pos: start}, nil

	case c >= '0' && c <= '9':
		seenDot := false
		for l.pos < len(l.in) {
			d := l.in[l.pos]
			if d == '.' && !seenDot && l.pos+1 < len(l.in) && l.in[l.pos+1] >= '0' && l.in[l.pos+1] <= '9' {
				seenDot = true
				l.pos++
				continue
			}
			if d < '0' || d > '9' {
				break
			}
			l.pos++
		}
		return token{kind: tokNumber, text: l.in[start:l.pos], pos: start}, nil

	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.in) {
			d := l.in[l.pos]
			if d == quote {
				// Doubled quote escapes itself.
				if l.pos+1 < len(l.in) && l.in[l.pos+1] == quote {
					sb.WriteByte(quote)
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(d)
			l.pos++
		}
		return token{}, l.errf(start, "unterminated string literal")

	default:
		// Multi-char operators first.
		for _, op := range []string{"<=", ">=", "<>", "!="} {
			if strings.HasPrefix(l.in[l.pos:], op) {
				l.pos += 2
				text := op
				if op == "!=" {
					text = "<>"
				}
				return token{kind: tokPunct, text: text, pos: start}, nil
			}
		}
		if strings.ContainsRune("(),.;*<>=+-/:", rune(c)) {
			l.pos++
			return token{kind: tokPunct, text: string(c), pos: start}, nil
		}
		return token{}, l.errf(l.pos, "unexpected character %q", r)
	}
}

// runeAt decodes the rune at byte offset i; invalid UTF-8 decodes as
// utf8.RuneError, which is no identifier character.
func (l *lexer) runeAt(i int) (rune, int) {
	if c := l.in[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.in[i:])
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }
