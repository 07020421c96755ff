// Package datalog implements a stratified Datalog engine with negation as
// failure: the substrate that plays the role of the author's Prolog
// prototype. Every formula in the paper is a Horn clause whose negations
// are stratified, so bottom-up evaluation of the rules computes the same
// minimal model the Prolog prototype enumerates under the closed world
// assumption (§3: "anything that we cannot show to be true is false").
//
// The engine supports:
//
//   - facts and rules with variables (uppercase) and constants;
//   - negated body literals (not p(X)), restricted to stratified programs;
//   - the comparison builtins gt/lt/geq/leq/eq/neq, numeric when both
//     arguments parse as integers (rule priorities), lexicographic
//     otherwise;
//   - a Prolog-style text syntax (see Parse) used by the logic reference
//     model and the demo binary.
package datalog

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Term is a variable or a constant.
type Term struct {
	// Var is true for variables.
	Var bool
	// Val is the variable name or the constant value.
	Val string
}

// V returns a variable term.
func V(name string) Term { return Term{Var: true, Val: name} }

// C returns a constant term.
func C(val string) Term { return Term{Val: val} }

// String renders the term in source syntax.
func (t Term) String() string {
	if t.Var {
		return t.Val
	}
	if !needsQuotes(t.Val) {
		return t.Val
	}
	// The parser takes the byte after a backslash as it is, so escaping
	// exactly the quote and the backslash reads back the same value.
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(t.Val); i++ {
		if c := t.Val[i]; c == '"' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(t.Val[i])
	}
	b.WriteByte('"')
	return b.String()
}

// needsQuotes reports whether the constant s must be quoted to read back
// as itself: the parser reads a bare term as an identifier (identByte
// bytes only) and takes one that starts with an uppercase letter or an
// underscore for a variable.
func needsQuotes(s string) bool {
	if s == "" || s[0] >= 'A' && s[0] <= 'Z' || s[0] == '_' {
		return true
	}
	for i := 0; i < len(s); i++ {
		if !identByte(s[i]) {
			return true
		}
	}
	return false
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// A builds an atom.
func A(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// String renders the atom in source syntax.
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Literal is a possibly negated atom.
type Literal struct {
	Atom Atom
	Neg  bool
}

// Pos and Not build body literals.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Not builds a negated body literal.
func Not(a Atom) Literal { return Literal{Atom: a, Neg: true} }

// String renders the literal in source syntax.
func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Rule is head :- body. An empty body makes the head a fact (it must then
// be ground).
type Rule struct {
	Head Atom
	Body []Literal
}

// String renders the rule in source syntax.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// builtins are comparison predicates evaluated over bound arguments.
var builtins = map[string]func(a, b string) bool{
	"gt":  func(a, b string) bool { return cmpVals(a, b) > 0 },
	"lt":  func(a, b string) bool { return cmpVals(a, b) < 0 },
	"geq": func(a, b string) bool { return cmpVals(a, b) >= 0 },
	"leq": func(a, b string) bool { return cmpVals(a, b) <= 0 },
	"eq":  func(a, b string) bool { return a == b },
	"neq": func(a, b string) bool { return a != b },
}

// cmpVals compares numerically when both values are integers, else
// lexicographically.
func cmpVals(a, b string) int {
	na, errA := strconv.ParseInt(a, 10, 64)
	nb, errB := strconv.ParseInt(b, 10, 64)
	if errA == nil && errB == nil {
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// IsBuiltin reports whether pred is a comparison builtin.
func IsBuiltin(pred string) bool {
	_, ok := builtins[pred]
	return ok
}

// Engine holds a program: extensional facts and rules.
type Engine struct {
	rules []Rule
	facts map[string][][]string // EDB tuples per predicate
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{facts: make(map[string][][]string)}
}

// Fact asserts a ground fact.
func (e *Engine) Fact(pred string, args ...string) {
	tuple := append([]string(nil), args...)
	e.facts[pred] = append(e.facts[pred], tuple)
}

// AddRule adds a rule after validating it (see Validate).
func (e *Engine) AddRule(r Rule) error {
	if err := validateRule(r); err != nil {
		return err
	}
	e.rules = append(e.rules, r)
	return nil
}

// MustRule is AddRule panicking on error, for static rule sets.
func (e *Engine) MustRule(r Rule) {
	if err := e.AddRule(r); err != nil {
		panic(err)
	}
}

// Rules returns the rules added so far.
func (e *Engine) Rules() []Rule { return e.rules }

// validateRule enforces safety: head variables must occur in a positive,
// non-builtin body literal, and so must all variables of negated or builtin
// literals; builtin literals must be binary. A bodyless rule must be ground.
func validateRule(r Rule) error {
	if IsBuiltin(r.Head.Pred) {
		return fmt.Errorf("datalog: rule head %s uses a builtin predicate", r.Head.Pred)
	}
	for _, l := range r.Body {
		if IsBuiltin(l.Atom.Pred) && len(l.Atom.Args) != 2 {
			return fmt.Errorf("datalog: builtin %s takes exactly 2 arguments, got %d",
				l.Atom.Pred, len(l.Atom.Args))
		}
	}
	positive := map[string]bool{}
	for _, l := range r.Body {
		if l.Neg || IsBuiltin(l.Atom.Pred) {
			continue
		}
		for _, t := range l.Atom.Args {
			if t.Var {
				positive[t.Val] = true
			}
		}
	}
	check := func(where string, args []Term) error {
		for _, t := range args {
			if t.Var && !positive[t.Val] {
				return fmt.Errorf("datalog: unsafe rule %s: variable %s in %s not bound by a positive literal",
					r, t.Val, where)
			}
		}
		return nil
	}
	if err := check("head", r.Head.Args); err != nil {
		return err
	}
	for _, l := range r.Body {
		if l.Neg || IsBuiltin(l.Atom.Pred) {
			if err := check(l.String(), l.Atom.Args); err != nil {
				return err
			}
		}
	}
	return nil
}

// ErrNotStratified is returned when negation cycles make the program
// unstratifiable.
var ErrNotStratified = errors.New("datalog: program is not stratified (negation inside a recursive cycle)")

// stratify assigns each IDB predicate a stratum such that positive
// dependencies stay within a stratum or below, and negative dependencies go
// strictly below. Returns predicates grouped per stratum, lowest first.
func (e *Engine) stratify() ([][]string, error) {
	// Collect IDB predicates.
	idb := map[string]bool{}
	for _, r := range e.rules {
		idb[r.Head.Pred] = true
	}
	strata := map[string]int{}
	for p := range idb {
		strata[p] = 0
	}
	n := len(idb)
	for round := 0; ; round++ {
		changed := false
		for _, r := range e.rules {
			for _, l := range r.Body {
				if !idb[l.Atom.Pred] {
					continue
				}
				min := strata[l.Atom.Pred]
				if l.Neg {
					min++
				}
				if strata[r.Head.Pred] < min {
					strata[r.Head.Pred] = min
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if round > n+1 {
			return nil, ErrNotStratified
		}
	}
	max := 0
	for _, s := range strata {
		if s > max {
			max = s
		}
	}
	groups := make([][]string, max+1)
	preds := make([]string, 0, len(strata))
	for p := range strata {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		groups[strata[p]] = append(groups[strata[p]], p)
	}
	return groups, nil
}

// DB is the evaluated database: derived and extensional tuples per
// predicate.
type DB struct {
	tuples map[string]map[string][]string // pred -> key -> tuple
}

func newDB() *DB { return &DB{tuples: make(map[string]map[string][]string)} }

func tupleKey(args []string) string { return strings.Join(args, "\x00") }

func (db *DB) insert(pred string, tuple []string) bool {
	m := db.tuples[pred]
	if m == nil {
		m = make(map[string][]string)
		db.tuples[pred] = m
	}
	k := tupleKey(tuple)
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = tuple
	return true
}

// Has reports whether the fact pred(args...) holds.
func (db *DB) Has(pred string, args ...string) bool {
	m := db.tuples[pred]
	if m == nil {
		return false
	}
	_, ok := m[tupleKey(args)]
	return ok
}

// All returns the tuples of a predicate, sorted for determinism.
func (db *DB) All(pred string) [][]string {
	m := db.tuples[pred]
	out := make([][]string, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		return tupleKey(out[i]) < tupleKey(out[j])
	})
	return out
}

// Count returns the number of tuples of a predicate.
func (db *DB) Count(pred string) int { return len(db.tuples[pred]) }

// Preds returns all predicates with at least one tuple, sorted.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.tuples))
	for p := range db.tuples {
		if len(db.tuples[p]) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Run evaluates the program bottom-up, stratum by stratum, to fixpoint and
// returns the resulting database.
func (e *Engine) Run() (*DB, error) {
	groups, err := e.stratify()
	if err != nil {
		return nil, err
	}
	db := newDB()
	for pred, tuples := range e.facts {
		if IsBuiltin(pred) {
			return nil, fmt.Errorf("datalog: facts asserted for builtin %s", pred)
		}
		for _, t := range tuples {
			db.insert(pred, t)
		}
	}
	inStratum := map[string]int{}
	for s, preds := range groups {
		for _, p := range preds {
			inStratum[p] = s
		}
	}
	for s := range groups {
		// Fixpoint over the rules whose head is in stratum s.
		var rules []Rule
		for _, r := range e.rules {
			if inStratum[r.Head.Pred] == s {
				rules = append(rules, r)
			}
		}
		for {
			changed := false
			for _, r := range rules {
				derived := evalRule(db, r)
				for _, tuple := range derived {
					if db.insert(r.Head.Pred, tuple) {
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
	}
	return db, nil
}

// evalRule computes all head tuples derivable from the rule under db.
func evalRule(db *DB, r Rule) [][]string {
	envs := []map[string]string{{}}
	for _, l := range r.Body {
		envs = extend(db, envs, l)
		if len(envs) == 0 {
			return nil
		}
	}
	out := make([][]string, 0, len(envs))
	for _, env := range envs {
		tuple := make([]string, len(r.Head.Args))
		for i, t := range r.Head.Args {
			if t.Var {
				tuple[i] = env[t.Val]
			} else {
				tuple[i] = t.Val
			}
		}
		out = append(out, tuple)
	}
	return out
}

// extend joins the current environments with one body literal.
func extend(db *DB, envs []map[string]string, l Literal) []map[string]string {
	if fn, ok := builtins[l.Atom.Pred]; ok {
		var out []map[string]string
		for _, env := range envs {
			a := resolve(env, l.Atom.Args[0])
			b := resolve(env, l.Atom.Args[1])
			ok := fn(a, b)
			if l.Neg {
				ok = !ok
			}
			if ok {
				out = append(out, env)
			}
		}
		return out
	}
	if l.Neg {
		var out []map[string]string
		for _, env := range envs {
			args := make([]string, len(l.Atom.Args))
			for i, t := range l.Atom.Args {
				args[i] = resolve(env, t)
			}
			if !db.Has(l.Atom.Pred, args...) {
				out = append(out, env)
			}
		}
		return out
	}
	var out []map[string]string
	tuples := db.tuples[l.Atom.Pred]
	for _, env := range envs {
		for _, tuple := range tuples {
			if len(tuple) != len(l.Atom.Args) {
				continue
			}
			next := matchTuple(env, l.Atom.Args, tuple)
			if next != nil {
				out = append(out, next)
			}
		}
	}
	return out
}

func resolve(env map[string]string, t Term) string {
	if t.Var {
		return env[t.Val]
	}
	return t.Val
}

// matchTuple unifies a tuple with the literal's argument pattern under env,
// returning the extended environment or nil.
func matchTuple(env map[string]string, args []Term, tuple []string) map[string]string {
	next := env
	copied := false
	for i, t := range args {
		if !t.Var {
			if t.Val != tuple[i] {
				return nil
			}
			continue
		}
		if bound, ok := next[t.Val]; ok {
			if bound != tuple[i] {
				return nil
			}
			continue
		}
		if !copied {
			clone := make(map[string]string, len(next)+1)
			for k, v := range next {
				clone[k] = v
			}
			next = clone
			copied = true
		}
		next[t.Val] = tuple[i]
	}
	if !copied && len(args) > 0 {
		// No new bindings: reuse env (it is never mutated).
		return env
	}
	return next
}
