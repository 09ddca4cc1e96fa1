package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// sqlTokKind classifies SQL tokens.
type sqlTokKind int

const (
	sqlEOF sqlTokKind = iota
	sqlIdent
	sqlKeyword
	sqlString
	sqlNumber
	sqlOp // = <> != < <= > >= + - * / || .
	sqlLParen
	sqlRParen
	sqlComma
	sqlStar
)

type sqlToken struct {
	kind sqlTokKind
	text string // keywords uppercased, identifiers lowercased
	num  float64
	off  int
}

var sqlKeywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"JOIN": true, "LEFT": true, "INNER": true, "OUTER": true, "ON": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true, "AND": true, "OR": true,
	"NOT": true, "LIKE": true, "AS": true, "IS": true, "NULL": true,
	"IN": true, "BETWEEN": true, "CROSS": true, "TRUE": true, "FALSE": true,
}

// sqlLex tokenizes SQL text. SQL string literals use single quotes with
// ” as the escape; -- starts a line comment.
func sqlLex(src string) ([]sqlToken, error) {
	var toks []sqlToken
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-':
			for i < n && src[i] != '\n' {
				i++
			}
		case c >= '0' && c <= '9':
			start := i
			for i < n && (src[i] >= '0' && src[i] <= '9') {
				i++
			}
			if i < n && src[i] == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9' {
				i++
				for i < n && (src[i] >= '0' && src[i] <= '9') {
					i++
				}
			}
			// an exponent, as numfmt renders values of 1e15 and up
			if i < n && (src[i] == 'e' || src[i] == 'E') {
				j := i + 1
				if j < n && (src[j] == '+' || src[j] == '-') {
					j++
				}
				if j < n && src[j] >= '0' && src[j] <= '9' {
					i = j
					for i < n && src[i] >= '0' && src[i] <= '9' {
						i++
					}
				}
			}
			v, err := strconv.ParseFloat(src[start:i], 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number at offset %d", start)
			}
			toks = append(toks, sqlToken{kind: sqlNumber, text: src[start:i], num: v, off: start})
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
				}
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(src[i])
				i++
			}
			toks = append(toks, sqlToken{kind: sqlString, text: b.String(), off: start})
		case isSQLIdentStart(c):
			start := i
			for i < n && isSQLIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if sqlKeywords[up] {
				toks = append(toks, sqlToken{kind: sqlKeyword, text: up, off: start})
			} else {
				toks = append(toks, sqlToken{kind: sqlIdent, text: strings.ToLower(word), off: start})
			}
		case c == '(':
			toks = append(toks, sqlToken{kind: sqlLParen, text: "(", off: i})
			i++
		case c == ')':
			toks = append(toks, sqlToken{kind: sqlRParen, text: ")", off: i})
			i++
		case c == ',':
			toks = append(toks, sqlToken{kind: sqlComma, text: ",", off: i})
			i++
		case c == '*':
			toks = append(toks, sqlToken{kind: sqlStar, text: "*", off: i})
			i++
		case c == ';':
			i++ // statement terminator: ignored
		default:
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<>", "!=", "<=", ">=", "||":
				toks = append(toks, sqlToken{kind: sqlOp, text: two, off: i})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '/', '.':
				toks = append(toks, sqlToken{kind: sqlOp, text: string(c), off: i})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", string(c), i)
			}
		}
	}
	toks = append(toks, sqlToken{kind: sqlEOF, off: n})
	return toks, nil
}

func isSQLIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isSQLIdentPart(c byte) bool {
	return isSQLIdentStart(c) || (c >= '0' && c <= '9')
}
