// Package qfilter implements the alternative read-enforcement strategy the
// paper's conclusion sketches (§5, after Fundulaki & Marx [9]): instead of
// materializing the user's view and evaluating queries on it, queries are
// evaluated directly on the source document through a security filter that
// reflects the user's privileges — hiding invisible nodes (hereditarily)
// and substituting RESTRICTED for position-only labels.
//
// The paper leaves open "how answers to filtered queries could include
// RESTRICTED labels"; this package's answer is the xpath.Security label
// hook, and the package's property tests establish the theorem the paper
// asks for: for every query, filtered evaluation on the source is
// answer-equivalent to plain evaluation on the materialized view.
//
// internal/core serves every view user this way and keeps no view
// document: each session keeps its axiom-14 permissions current by delta
// patching, and ForPerms over those permissions is the one filter its
// queries, values, XSLT transforms, writes and /view renderings read. The
// filter is an xmltree.Filter, so the XPath evaluator, the serializer
// (xmltree.WriteOptions.Filter) and xmltree.CopyFiltered — which answers
// a non-empty node-set value and copies value-of content — all present
// the same view. view.Materialize stays as the specification the
// property tests compare against.
//
// internal/rewrite is a static analysis beside this package: its
// classifier proves some queries empty or unfiltered for a rule profile
// from the policy alone. No read path consults it; its oracle pins its
// verdicts answer-equivalent to the view, as this package's property
// tests pin the filter.
package qfilter

import (
	"securexml/internal/policy"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// ForPerms builds the security filter equivalent to the axiom-15–17 view
// for the user whose permissions are pm:
//
//   - a node is visible iff the user holds read or position on it (the
//     hereditary "parent must be selected" condition of axioms 16–17 is
//     supplied by the evaluator, which never descends below an invisible
//     node);
//   - a visible node's effective label is its own with read, RESTRICTED
//     with position only (axiom 17).
//
// Each test is one uncounted Perms.Mask lookup, by the node's ordinal: a
// filter reads cells once per visited node, and counting each read as a
// policy decision would put a process-global atomic on every concurrent
// query's hot path. The nodes the evaluator visits must therefore belong
// to the lineage of the document pm was evaluated on (see policy.Perms).
func ForPerms(pm *policy.Perms) *xmltree.Filter {
	return &xmltree.Filter{
		Visible: func(n *xmltree.Node) bool {
			return n.Kind() == xmltree.KindDocument || // axiom 15
				pm.Mask(n)&(readBit|positionBit) != 0
		},
		Label: func(n *xmltree.Node) string {
			if n.Kind() == xmltree.KindDocument || pm.Mask(n)&readBit != 0 {
				return n.Label()
			}
			return xmltree.Restricted
		},
	}
}

// The Perms.Mask bits of the two privileges the filter reads.
const (
	readBit     = 1 << policy.Read
	positionBit = 1 << policy.Position
)

// Select evaluates path on the source document under the user's filter and
// returns the matching *source* nodes in document order. The answer set
// equals { source node of v : v in Select(view, path) }.
func Select(doc *xmltree.Document, pm *policy.Perms, path string, vars xpath.Vars) (xpath.NodeSet, error) {
	c, err := xpath.Compile(path)
	if err != nil {
		return nil, err
	}
	return c.SelectFiltered(doc.Root(), vars, ForPerms(pm))
}

// Eval evaluates an arbitrary expression (node-set or atomic) under the
// user's filter.
func Eval(doc *xmltree.Document, pm *policy.Perms, path string, vars xpath.Vars) (xpath.Value, error) {
	c, err := xpath.Compile(path)
	if err != nil {
		return nil, err
	}
	return c.EvalFiltered(doc.Root(), vars, ForPerms(pm))
}
