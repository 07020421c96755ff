package datalog

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse reads a program in Prolog-style syntax, one clause per '.':
//
//	node(n1, patients).
//	child(n2, n1).
//	visible(N) :- node(N, V), not hidden(N).
//	perm(S, N, R) :- rule(accept, R, P, S2, T), isa(S, S2), xpath(P, N, V),
//	                 not defeated(S2, N, R, T).
//
// Identifiers starting with an uppercase letter are variables; everything
// else (bare lowercase identifiers, numbers, double-quoted strings) is a
// constant. '%' starts a line comment. Ground bodyless clauses become
// facts; everything else must be a valid safe rule.
func Parse(src string) (*Engine, error) {
	e := NewEngine()
	p := &dlParser{src: src}
	for {
		p.skipSpace()
		if p.eof() {
			return e, nil
		}
		r, err := p.clause()
		if err != nil {
			return nil, err
		}
		if len(r.Body) == 0 {
			args := make([]string, len(r.Head.Args))
			for i, t := range r.Head.Args {
				if t.Var {
					return nil, fmt.Errorf("datalog: parse: fact %s has a variable", r.Head)
				}
				args[i] = t.Val
			}
			e.Fact(r.Head.Pred, args...)
			continue
		}
		if err := e.AddRule(r); err != nil {
			return nil, err
		}
	}
}

// MustParse is Parse panicking on error, for static programs.
func MustParse(src string) *Engine {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type dlParser struct {
	src string
	pos int
}

func (p *dlParser) eof() bool { return p.pos >= len(p.src) }

func (p *dlParser) errf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	return fmt.Errorf("datalog: parse: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *dlParser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '%' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		break
	}
}

func (p *dlParser) clause() (Rule, error) {
	head, err := p.atom()
	if err != nil {
		return Rule{}, err
	}
	p.skipSpace()
	if p.consume(".") {
		return Rule{Head: head}, nil
	}
	if !p.consume(":-") {
		return Rule{}, p.errf("expected ':-' or '.' after %s", head)
	}
	var body []Literal
	for {
		p.skipSpace()
		neg := false
		if p.consumeWord("not") {
			neg = true
			p.skipSpace()
		}
		a, err := p.atom()
		if err != nil {
			return Rule{}, err
		}
		body = append(body, Literal{Atom: a, Neg: neg})
		p.skipSpace()
		if p.consume(",") {
			continue
		}
		if p.consume(".") {
			return Rule{Head: head, Body: body}, nil
		}
		return Rule{}, p.errf("expected ',' or '.' in rule body")
	}
}

func (p *dlParser) consume(tok string) bool {
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

// consumeWord consumes tok only when followed by a non-identifier byte.
func (p *dlParser) consumeWord(tok string) bool {
	rest := p.src[p.pos:]
	if !strings.HasPrefix(rest, tok) {
		return false
	}
	if len(rest) > len(tok) {
		c := rune(rest[len(tok)])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			return false
		}
	}
	p.pos += len(tok)
	return true
}

func (p *dlParser) atom() (Atom, error) {
	p.skipSpace()
	pred, err := p.ident()
	if err != nil {
		return Atom{}, err
	}
	if pred == "" {
		return Atom{}, p.errf("expected a predicate name")
	}
	p.skipSpace()
	if !p.consume("(") {
		return Atom{Pred: pred}, nil // propositional atom
	}
	var args []Term
	for {
		p.skipSpace()
		t, err := p.term()
		if err != nil {
			return Atom{}, err
		}
		args = append(args, t)
		p.skipSpace()
		if p.consume(",") {
			continue
		}
		if p.consume(")") {
			return Atom{Pred: pred, Args: args}, nil
		}
		return Atom{}, p.errf("expected ',' or ')' in argument list of %s", pred)
	}
}

func (p *dlParser) term() (Term, error) {
	if p.eof() {
		return Term{}, p.errf("unexpected end of input in term")
	}
	c := p.src[p.pos]
	if c == '"' {
		return p.quoted()
	}
	word, err := p.ident()
	if err != nil {
		return Term{}, err
	}
	if word == "" {
		return Term{}, p.errf("expected a term, found %q", c)
	}
	if word[0] >= 'A' && word[0] <= 'Z' || word[0] == '_' {
		return V(word), nil
	}
	return C(word), nil
}

func (p *dlParser) quoted() (Term, error) {
	start := p.pos
	p.pos++ // opening quote
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case '"':
			p.pos++
			return C(b.String()), nil
		case '\\':
			if p.pos+1 < len(p.src) {
				p.pos++
				b.WriteByte(p.src[p.pos])
				p.pos++
				continue
			}
			p.pos = start
			return Term{}, p.errf("unterminated escape in string")
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	p.pos = start
	return Term{}, p.errf("unterminated string literal")
}

// ident scans an identifier / number: a run of identByte bytes.
func (p *dlParser) ident() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && identByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// identByte reports whether c may appear in a bare identifier: letters,
// digits, and the punctuation that appears in node identifiers (_ - /).
// Anything else — . * [ ] $ : ( ) included — needs a quoted string.
func identByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '/'
}
