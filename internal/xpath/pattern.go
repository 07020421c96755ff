package xpath

import (
	"fmt"
	"strings"
)

// This file implements the conservative downward-fragment abstraction used
// by the static policy analyzer (internal/policyanalysis): every compiled
// expression maps to a Pattern describing — as a union of root-anchored
// step sequences — which nodes the expression *could* select when evaluated
// with the document node as context (which is exactly how security-rule
// paths are evaluated, see policy.Evaluate).
//
// The abstraction is an over-approximation: every node the expression can
// select on any document, under any variable binding, is matched by the
// Pattern. For expressions inside the downward fragment — absolute or
// document-rooted paths built from child / attribute / descendant /
// descendant-or-self::node() steps with name, wildcard or node-type tests,
// no predicates, unions allowed — the abstraction is lossless and Exact is
// true; satisfiability, overlap and containment are then decidable exactly
// on the Pattern. Predicates, $USER, reverse and sideways axes, and filter
// bases degrade to a sound superset with Exact = false.

// PatternKind classifies the node category one PatternStep matches.
type PatternKind int

// Pattern step kinds. PatAnyNode is only produced by over-approximations
// (it also matches attribute nodes, which no single downward step can
// reach); PatAnyChild is node() on the child axis.
const (
	PatAnyNode PatternKind = iota
	PatAnyChild
	PatElement
	PatNamedElement
	PatText
	PatComment
	PatPI
	PatAnyAttribute
	PatNamedAttribute
)

// String renders the kind as a node test.
func (k PatternKind) String() string {
	switch k {
	case PatAnyNode:
		return "any()"
	case PatAnyChild:
		return "node()"
	case PatElement:
		return "*"
	case PatNamedElement:
		return "name"
	case PatText:
		return "text()"
	case PatComment:
		return "comment()"
	case PatPI:
		return "processing-instruction()"
	case PatAnyAttribute:
		return "@*"
	case PatNamedAttribute:
		return "@name"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// PatternStep matches exactly one node on a root-to-node walk. Gap means
// the step is reached through zero or more intermediate descendant levels
// (the '//' of the abbreviated syntax) rather than as a direct child.
type PatternStep struct {
	Gap  bool
	Kind PatternKind
	Name string // for PatNamedElement / PatNamedAttribute
}

// String renders the step in abbreviated-XPath style.
func (s PatternStep) String() string {
	sep := "/"
	if s.Gap {
		sep = "//"
	}
	switch s.Kind {
	case PatNamedElement:
		return sep + s.Name
	case PatNamedAttribute:
		return sep + "@" + s.Name
	default:
		return sep + s.Kind.String()
	}
}

// Pattern is the abstraction of one expression: the union of its
// alternatives. An alternative with zero steps matches the document node
// itself. A pattern with zero alternatives matches nothing.
type Pattern struct {
	Alts  [][]PatternStep
	Exact bool
}

// String renders the pattern for diagnostics.
func (p *Pattern) String() string {
	if len(p.Alts) == 0 {
		return "∅"
	}
	parts := make([]string, len(p.Alts))
	for i, alt := range p.Alts {
		if len(alt) == 0 {
			parts[i] = "/"
			continue
		}
		var b strings.Builder
		for _, s := range alt {
			b.WriteString(s.String())
		}
		parts[i] = b.String()
	}
	out := strings.Join(parts, " | ")
	if !p.Exact {
		out += " (approx)"
	}
	return out
}

// anyNodePattern is the universal over-approximation: the document node or
// any node whatsoever below it.
func anyNodePattern() *Pattern {
	return &Pattern{
		Alts:  [][]PatternStep{{}, {{Gap: true, Kind: PatAnyNode}}},
		Exact: false,
	}
}

// Pattern computes the downward-fragment abstraction of the expression.
// The abstraction describes evaluation with the *document node* as context
// (the context security rules are evaluated in), so relative location paths
// behave like absolute ones.
func (c *Compiled) Pattern() *Pattern {
	return patternOf(c.root)
}

func patternOf(e expr) *Pattern {
	switch v := e.(type) {
	case *binaryExpr:
		if v.op != opUnion {
			return anyNodePattern()
		}
		l, r := patternOf(v.l), patternOf(v.r)
		alts := make([][]PatternStep, 0, len(l.Alts)+len(r.Alts))
		alts = append(alts, l.Alts...)
		alts = append(alts, r.Alts...)
		return &Pattern{Alts: alts, Exact: l.Exact && r.Exact}
	case *pathExpr:
		return pathPattern(v)
	default:
		// Filter expressions, literals, function calls, variables: no
		// static downward shape.
		return anyNodePattern()
	}
}

// pathPattern abstracts one location path, step by step.
func pathPattern(p *pathExpr) *Pattern {
	if p.base != nil {
		return anyNodePattern()
	}
	exact := true
	alts := [][]PatternStep{{}}
	pendingGap := false
	for _, st := range p.steps {
		if len(st.preds) > 0 {
			exact = false // predicates only filter: dropping them is a superset
		}
		switch st.axis {
		case AxisSelf:
			if st.test.kind != testNode {
				exact = false // self::T filters the context: superset by ignoring
			}
		case AxisChild:
			alts = appendStep(alts, PatternStep{Gap: pendingGap, Kind: childKind(st.test), Name: st.test.name})
			pendingGap = false
		case AxisAttribute:
			k, ok := attrKind(st.test)
			if !ok {
				// attribute::text() and friends select nothing, ever.
				return &Pattern{Exact: exact}
			}
			alts = appendStep(alts, PatternStep{Gap: pendingGap, Kind: k, Name: st.test.name})
			pendingGap = false
		case AxisDescendantOrSelf:
			if st.test.kind == testNode {
				pendingGap = true
				continue
			}
			// descendant-or-self::T: the context itself (over-approximated by
			// ignoring the test) or a matching descendant.
			exact = false
			alts = append(alts, appendStep(alts, PatternStep{Gap: true, Kind: childKind(st.test), Name: st.test.name})...)
		case AxisDescendant:
			alts = appendStep(alts, PatternStep{Gap: true, Kind: childKind(st.test), Name: st.test.name})
			pendingGap = false
		default:
			// Reverse and sideways axes can land anywhere in the document;
			// everything after them is at best a filter.
			return anyNodePattern()
		}
	}
	if pendingGap {
		// A trailing descendant-or-self::node(): the nodes reached so far or
		// anything below them.
		alts = append(alts, appendStep(alts, PatternStep{Gap: true, Kind: PatAnyChild})...)
	}
	return &Pattern{Alts: alts, Exact: exact}
}

// appendStep returns a copy of alts with s appended to every alternative.
func appendStep(alts [][]PatternStep, s PatternStep) [][]PatternStep {
	out := make([][]PatternStep, len(alts))
	for i, a := range alts {
		na := make([]PatternStep, len(a), len(a)+1)
		copy(na, a)
		out[i] = append(na, s)
	}
	return out
}

// childKind maps a node test on the child (or descendant) axis, whose
// principal node type is element.
func childKind(nt nodeTest) PatternKind {
	switch nt.kind {
	case testName:
		return PatNamedElement
	case testWildcard:
		return PatElement
	case testText:
		return PatText
	case testComment:
		return PatComment
	case testPI:
		return PatPI
	default:
		return PatAnyChild
	}
}

// attrKind maps a node test on the attribute axis; ok is false for tests no
// attribute node can satisfy.
func attrKind(nt nodeTest) (PatternKind, bool) {
	switch nt.kind {
	case testName:
		return PatNamedAttribute, true
	case testWildcard, testNode:
		return PatAnyAttribute, true
	default:
		return 0, false
	}
}
