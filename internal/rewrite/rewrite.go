// Package rewrite is a static read analysis with no request-path caller.
// For one (rule profile, query) pair it decides from the policy alone,
// without reading any document, whether the query's answer over the
// user's view (axioms 15–17) is provably empty or provably the raw query's
// answer over the source. This is the static half of Cheney's "Static
// Enforceability of XPath-Based Access Control Policies", adapted to the
// paper's priority-merge semantics (axiom 14). Both decisions are word
// searches of the policy analyzer's automata over xpath.Pattern
// abstractions:
//
//   - PlanEmpty: the query's pattern, read over view words
//     (xpath.Pattern.ViewPreimage), shares no root-to-node word with any
//     applicable accept read/position rule and cannot select the document
//     node, so no node the query could ever select is visible; the same
//     holds for the nodes each of its predicates runs on, so evaluation
//     could not fail either. Sound for every rule and query, because the
//     patterns over-approximate any expression (down to the universal
//     pattern).
//   - PlanTransparent: every possible node's latest-priority read decision
//     is an accept (checked over the pattern alphabet, requiring every
//     applicable read rule to be Exact), so the view is the source.
//
// Every other plan is PlanFiltered: the read needs the permission filter.
// Reads themselves always take internal/core's secured read path, which
// evaluates on the source under the session's maintained permissions
// (internal/qfilter); like Cheney's analysis, this one belongs at
// policy-authoring time, and its soundness suite checks every plan
// against the view.
//
// A program covers one rule *profile* — the set of applicable read and
// position rules — not one user: $USER stays a runtime variable. Rules for
// the write privileges (insert, update, delete) cannot influence any
// answer and are ignored.
package rewrite

import (
	"securexml/internal/policy"
	"securexml/internal/policyanalysis"
	"securexml/internal/subject"
	"securexml/internal/xpath"
)

// ruleInfo is the classifier's form of one read/position rule.
type ruleInfo struct {
	subject string
	priv    policy.Privilege
	effect  policy.Effect
	text    string
	pattern *xpath.Pattern
}

// Engine holds the classifier's state for one (policy, hierarchy) pair:
// the read/position rules in abstract form. It is immutable once built.
type Engine struct {
	h     *subject.Hierarchy
	rules []ruleInfo // ascending priority (policy.Rules order)
}

// NewEngine abstracts the policy's read and position rules for
// classification.
func NewEngine(p *policy.Policy, h *subject.Hierarchy) *Engine {
	e := &Engine{h: h}
	for _, r := range p.Rules() {
		if r.Privilege != policy.Read && r.Privilege != policy.Position {
			continue
		}
		// Paths were compiled by policy.Add, so this cannot fail for a
		// well-formed policy; the universal pattern (the document node or
		// any node below it) keeps a failure sound.
		pat := &xpath.Pattern{Alts: [][]xpath.PatternStep{{}, {{Gap: true, Kind: xpath.PatAnyNode}}}}
		if c, err := xpath.Compile(r.Path); err == nil {
			pat = c.Pattern()
		}
		e.rules = append(e.rules, ruleInfo{
			subject: r.Subject,
			priv:    r.Privilege,
			effect:  r.Effect,
			text:    r.String(),
			pattern: pat,
		})
	}
	return e
}

// ProgramFor builds the program of the user's rule profile.
func (e *Engine) ProgramFor(user string) *Program {
	var idx []int
	for i := range e.rules {
		if e.h.ISA(user, e.rules[i].subject) {
			idx = append(idx, i)
		}
	}
	return buildProgram(e.rules, idx)
}

// Program is the classifier of one rule profile: the applicable
// read/position rules in ascending priority and the accept rules'
// patterns.
type Program struct {
	rules       []ruleInfo
	acceptPats  []*xpath.Pattern // patterns of the accept rules (visibility over-approximation)
	transparent bool
}

// buildProgram classifies the profile selected by idx.
func buildProgram(rules []ruleInfo, idx []int) *Program {
	pg := &Program{}
	for _, i := range idx {
		pg.rules = append(pg.rules, rules[i])
		if rules[i].effect == policy.Accept {
			pg.acceptPats = append(pg.acceptPats, rules[i].pattern)
		}
	}
	pg.transparent = pg.checkTransparent()
	return pg
}

// Rules returns the profile's applicable read/position rules rendered in
// the paper's notation, for diagnostics and tests.
func (pg *Program) Rules() []string {
	out := make([]string, len(pg.rules))
	for i := range pg.rules {
		out[i] = pg.rules[i].text
	}
	return out
}

// Transparent reports whether the profile reads every node of every
// document (so its view is the source).
func (pg *Program) Transparent() bool { return pg.transparent }

// checkTransparent decides profile transparency: no root-to-node word
// exists whose latest-priority read decision is missing or a deny. The
// document node is exempt (axiom 15: the root is always visible, and its
// string-value is covered because all text words must still be readable).
// Soundness needs every applicable read pattern to be Exact — an inexact
// accept pattern over-approximates the rule's true grant.
func (pg *Program) checkTransparent() bool {
	var reads []ruleInfo
	for _, ri := range pg.rules {
		if ri.priv == policy.Read {
			reads = append(reads, ri)
		}
	}
	if len(reads) == 0 {
		return false
	}
	for _, ri := range reads {
		if !ri.pattern.Exact {
			return false
		}
	}
	pats := []*xpath.Pattern{policyanalysis.RootOnlyPattern()}
	for _, ri := range reads {
		pats = append(pats, ri.pattern)
	}
	return !policyanalysis.MatchableWord(pats, func(match []bool) bool {
		if match[0] {
			return false // the document node itself
		}
		last := -1 // reads is in ascending priority, so the last match wins
		for i := range reads {
			if match[i+1] {
				last = i
			}
		}
		return last < 0 || reads[last].effect == policy.Deny
	})
}

// PlanMode classifies a query for one profile.
type PlanMode int

// Plan modes.
const (
	// PlanFiltered: the answer depends on the document; the read needs
	// the permission filter.
	PlanFiltered PlanMode = iota
	// PlanTransparent evaluates the raw query: the profile reads
	// everything, so the filter is the identity.
	PlanTransparent
	// PlanEmpty returns the statically empty answer: nothing the query
	// could select is visible to the profile.
	PlanEmpty
)

// String names the mode.
func (m PlanMode) String() string {
	switch m {
	case PlanFiltered:
		return "filtered"
	case PlanTransparent:
		return "transparent"
	case PlanEmpty:
		return "empty"
	default:
		return "unknown"
	}
}

// Plan is one classified query: the compiled expression plus its static
// classification for this profile. Plans are document-independent.
type Plan struct {
	Mode PlanMode
	c    *xpath.Compiled
}

// PlanFor compiles and classifies query for this profile. A compile error
// is the caller's to report.
func (pg *Program) PlanFor(query string) (*Plan, error) {
	c, err := xpath.Compile(query)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Mode: PlanFiltered, c: c}
	if pg.transparent {
		pl.Mode = PlanTransparent
	} else if pg.provablyEmpty(c) {
		pl.Mode = PlanEmpty
	}
	return pl, nil
}

// provablyEmpty reports whether no node the query could select is visible
// and no predicate of the query can run on a visible node, so evaluating
// it over the view would neither find a node nor fail.
func (pg *Program) provablyEmpty(c *xpath.Compiled) bool {
	if !pg.noVisibleMatch(c.Pattern()) {
		return false
	}
	for _, pp := range c.PredicatePatterns() {
		if !pg.noVisibleMatch(pp) {
			return false
		}
	}
	return true
}

// noVisibleMatch reports whether no node matched by qp, read over view
// words, is visible: qp cannot match the document node and shares no word
// with any applicable accept rule's pattern. Both patterns
// over-approximate, so an empty intersection is conclusive regardless of
// exactness. A query pattern that can prove emptiness only arises from
// path/union expressions, which always evaluate to node-sets — so an
// empty plan is always a node-set.
func (pg *Program) noVisibleMatch(qp *xpath.Pattern) bool {
	qp = qp.ViewPreimage()
	if qp.MatchesRoot() {
		return false
	}
	if len(pg.acceptPats) == 0 {
		return true
	}
	pats := append([]*xpath.Pattern{qp}, pg.acceptPats...)
	return !policyanalysis.MatchableWord(pats, func(match []bool) bool {
		if !match[0] {
			return false
		}
		for _, m := range match[1:] {
			if m {
				return true
			}
		}
		return false
	})
}

// Compiled returns the plan's compiled query, for the caller to evaluate
// raw (PlanTransparent) or under its permission filter (PlanFiltered).
func (pl *Plan) Compiled() *xpath.Compiled { return pl.c }
