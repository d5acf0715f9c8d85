package xmlql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF         tokKind = iota
	tokIdent               // bare identifier or keyword
	tokVar                 // $name
	tokString              // "..." (escapes \" and \\)
	tokNumber              // 123 or 1.5
	tokLAngle              // <
	tokLAngleSlash         // </
	tokRAngle              // >
	tokSlashAngle          // />
	tokLBrace              // {
	tokRBrace              // }
	tokLParen              // (
	tokRParen              // )
	tokComma               // ,
	tokOp                  // = != < <= > >= + - * / .
	tokDblSlash            // //
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLAngle:
		return "'<'"
	case tokLAngleSlash:
		return "'</'"
	case tokRAngle:
		return "'>'"
	case tokSlashAngle:
		return "'/>'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokOp:
		return "operator"
	case tokDblSlash:
		return "'//'"
	default:
		return "token"
	}
}

type token struct {
	kind tokKind
	text string
	pos  int // byte offset, for error messages
}

// lexer tokenizes an XML-QL query. Because '<' is both a tag opener and a
// comparison operator, the lexer exposes both readings: it emits tokLAngle
// and the parser decides from context whether to treat it as a comparison
// (see parser.relOpFromToken).
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	toks, err := lexInto(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lexInto tokenizes src into toks[:0], so a caller that keeps the slice
// lexes without allocating once it has grown. It returns the slice even
// on error, for the same reuse.
//
// It fails with ErrTooLong past maxTokens tokens, so no text costs more.
func lexInto(toks []token, src string) ([]token, error) {
	l := &lexer{src: src, toks: toks[:0]}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.toks, nil
		}
		start := l.pos
		if len(l.toks) == maxTokens {
			return l.toks, fmt.Errorf("xmlql: offset %d: %w: more than %d tokens", start, ErrTooLong, maxTokens)
		}
		c := l.src[l.pos]
		switch {
		case c == '<':
			if l.peekAt(1) == '/' && l.peekAt(2) == '/' {
				// '<//name' is a descendant tag test: emit '<' and let
				// the '//' lex as its own token.
				l.pos++
				l.emitAt(tokLAngle, "<", start)
			} else if l.peekAt(1) == '/' {
				l.pos += 2
				l.emitAt(tokLAngleSlash, "</", start)
			} else if l.peekAt(1) == '=' {
				l.pos += 2
				l.emitAt(tokOp, "<=", start)
			} else {
				l.pos++
				l.emitAt(tokLAngle, "<", start)
			}
		case c == '>':
			if l.peekAt(1) == '=' {
				l.pos += 2
				l.emitAt(tokOp, ">=", start)
			} else {
				l.pos++
				l.emitAt(tokRAngle, ">", start)
			}
		case c == '/':
			switch l.peekAt(1) {
			case '>':
				l.pos += 2
				l.emitAt(tokSlashAngle, "/>", start)
			case '/':
				l.pos += 2
				l.emitAt(tokDblSlash, "//", start)
			default:
				l.pos++
				l.emitAt(tokOp, "/", start)
			}
		case c == '{' || c == '(':
			l.pos++
			if c == '{' {
				l.emitAt(tokLBrace, "{", start)
			} else {
				l.emitAt(tokLParen, "(", start)
			}
		case c == '}' || c == ')':
			l.pos++
			if c == '}' {
				l.emitAt(tokRBrace, "}", start)
			} else {
				l.emitAt(tokRParen, ")", start)
			}
		case c == ',':
			l.pos++
			l.emitAt(tokComma, ",", start)
		case c == '=':
			l.pos++
			l.emitAt(tokOp, "=", start)
		case c == '!':
			if l.peekAt(1) != '=' {
				return l.toks, fmt.Errorf("xmlql: unexpected '!' at offset %d", start)
			}
			l.pos += 2
			l.emitAt(tokOp, "!=", start)
		case c == '+' || c == '*' || c == '|':
			l.pos++
			l.emitAt(tokOp, string(c), start)
		case c == '-':
			// '-' may begin a negative number or be the subtraction op;
			// the parser treats tokOp "-" as binary, so lex negative
			// numbers only when a digit follows immediately and the
			// previous token cannot end an expression.
			if isDigit(l.peekAt(1)) && !l.prevEndsExpr() {
				l.lexNumber()
			} else {
				l.pos++
				l.emitAt(tokOp, "-", start)
			}
		case c == '.':
			l.pos++
			l.emitAt(tokOp, ".", start)
		case c == '$':
			l.pos++
			name := l.lexName()
			if name == "" {
				return l.toks, fmt.Errorf("xmlql: '$' without variable name at offset %d", start)
			}
			l.emitAt(tokVar, name, start)
		case c == '"' || c == '\'':
			s, err := l.lexString(c)
			if err != nil {
				return l.toks, err
			}
			l.emitAt(tokString, s, start)
		case isDigit(c):
			l.lexNumber()
		case isNameStart(rune(c)):
			name := l.lexName()
			l.emitAt(tokIdent, name, start)
		default:
			return l.toks, fmt.Errorf("xmlql: unexpected character %q at offset %d", c, start)
		}
	}
}

func (l *lexer) emit(k tokKind, text string) { l.emitAt(k, text, l.pos) }

func (l *lexer) emitAt(k tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

func (l *lexer) peekAt(d int) byte {
	if l.pos+d >= len(l.src) {
		return 0
	}
	return l.src[l.pos+d]
}

// prevEndsExpr reports whether the previous token could end an expression
// (so a following '-' must be binary subtraction).
func (l *lexer) prevEndsExpr() bool {
	if len(l.toks) == 0 {
		return false
	}
	switch l.toks[len(l.toks)-1].kind {
	case tokVar, tokNumber, tokString, tokRParen, tokIdent:
		return true
	default:
		return false
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// '#' comments run to end of line.
		if c == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func (l *lexer) lexName() string {
	start := l.pos
	for l.pos < len(l.src) {
		r := rune(l.src[l.pos])
		if isNameStart(r) || isDigit(l.src[l.pos]) || r == '-' && l.pos > start {
			l.pos++
			continue
		}
		break
	}
	name := l.src[start:l.pos]
	// A trailing '-' belongs to an operator, not the name, except in the
	// keywords ORDER-BY and the like which are all-letters around '-'.
	for strings.HasSuffix(name, "-") {
		name = name[:len(name)-1]
		l.pos--
	}
	return name
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	l.emitAt(tokNumber, l.src[start:l.pos], start)
}

// lexString returns the string literal's value: a slice of the source
// when it has no escape, so that only escaped strings allocate.
func (l *lexer) lexString(quote byte) (string, error) {
	start := l.pos
	l.pos++ // opening quote
	for i := l.pos; i < len(l.src) && l.src[i] != '\\'; i++ {
		if l.src[i] == quote {
			l.pos = i + 1
			return l.src[start+1 : i], nil
		}
	}
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return sb.String(), nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return "", fmt.Errorf("xmlql: unterminated escape at offset %d", l.pos)
			}
			next := l.src[l.pos+1]
			switch next {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteByte(next)
			}
			l.pos += 2
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return "", fmt.Errorf("xmlql: unterminated string starting at offset %d", start)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}
