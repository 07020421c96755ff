package xpath

import (
	"fmt"

	"securexml/internal/xmltree"
)

// NodeMatcher answers "does the expression, evaluated from the document
// node, select this node?" for a single node in O(depth × steps) — without
// materializing the full node-set the way Matches does.
//
// It exists for incremental view maintenance: when every rule applicable
// to a user compiles to a NodeMatcher, the membership of a node in a
// rule's select set depends only on the node's root-to-node chain (kinds
// and labels) plus the variable bindings. Under that restriction an update
// can only change the permissions of the subtree it touched, which is what
// makes patching a user's cached permissions sound (see
// internal/view/incremental.go).
//
// The supported fragment is a union of rooted location paths whose steps
// use only the downward axes (child, attribute, self, descendant,
// descendant-or-self) and whose predicates are self-contained: they
// evaluate to a boolean from string/number/variable operands and the
// context node's own name — no location paths, no position()/last(), no
// numeric (positional) predicates. All twelve rules of the paper's
// axiom-13 policy fall inside the fragment, including rule 5's
// /patients/*[name() = $USER]/descendant-or-self::node().
type NodeMatcher struct {
	alts [][]step
}

// maxMatcherSteps bounds a path's step count so the DP state fits a
// uint64 bitmask (state i = "first i steps consumed", 0..len(steps)).
const maxMatcherSteps = 62

// NodeMatcher compiles the per-node membership form of the expression.
// It returns (nil, false) when the expression falls outside the supported
// fragment; callers then fall back to full evaluation.
func (c *Compiled) NodeMatcher() (*NodeMatcher, bool) {
	var alts [][]step
	if !collectMatchAlts(c.root, &alts) {
		return nil, false
	}
	return &NodeMatcher{alts: alts}, true
}

// collectMatchAlts flattens unions into alternative step lists, rejecting
// anything outside the matchable fragment.
func collectMatchAlts(e expr, alts *[][]step) bool {
	switch v := e.(type) {
	case *binaryExpr:
		if v.op != opUnion {
			return false
		}
		return collectMatchAlts(v.l, alts) && collectMatchAlts(v.r, alts)
	case *pathExpr:
		// Rule paths are evaluated with the document node as the context
		// node, so relative and absolute paths both start at the root.
		if v.base != nil || len(v.steps) > maxMatcherSteps {
			return false
		}
		for _, st := range v.steps {
			switch st.axis {
			case AxisChild, AxisAttribute, AxisSelf, AxisDescendant, AxisDescendantOrSelf:
			default:
				return false
			}
			for _, p := range st.preds {
				if !selfContainedPred(p) {
					return false
				}
			}
		}
		*alts = append(*alts, v.steps)
		return true
	default:
		return false
	}
}

// selfContainedPred accepts predicates whose top-level result is a boolean
// computed from self-contained values. Numbers are rejected at the top
// level because a numeric predicate is positional ([2] keeps the second
// sibling), and position depends on nodes outside the candidate's chain.
func selfContainedPred(e expr) bool {
	switch v := e.(type) {
	case *binaryExpr:
		switch v.op {
		case opOr, opAnd:
			return selfContainedPredOrVal(v.l) && selfContainedPredOrVal(v.r)
		case opEq, opNeq, opLt, opLeq, opGt, opGeq:
			return selfContainedVal(v.l) && selfContainedVal(v.r)
		}
		return false
	case *funcCall:
		switch v.name {
		case "not", "boolean":
			return len(v.args) == 1 && selfContainedVal(v.args[0])
		case "true", "false":
			return len(v.args) == 0
		case "contains", "starts-with":
			return len(v.args) == 2 && selfContainedVal(v.args[0]) && selfContainedVal(v.args[1])
		}
		return false
	}
	return false
}

// selfContainedPredOrVal is the operand form of and/or: either a boolean
// predicate or any self-contained value (and/or coerce with Bool, so a
// number operand is not positional).
func selfContainedPredOrVal(e expr) bool {
	return selfContainedPred(e) || selfContainedVal(e)
}

// matcherPureFns are core functions whose result depends only on their
// arguments. Zero-argument forms that read the context node's string-value
// (string(), number(), string-length(), normalize-space()) are excluded:
// a string-value depends on the node's descendants, which breaks the
// chain-only property the matcher guarantees.
var matcherPureFns = map[string]bool{
	"concat": true, "contains": true, "starts-with": true,
	"substring": true, "substring-before": true, "substring-after": true,
	"translate": true, "not": true, "boolean": true,
	"string": true, "number": true, "string-length": true,
	"normalize-space": true, "floor": true, "ceiling": true, "round": true,
}

// selfContainedVal accepts operand expressions whose value depends only on
// literals, variables and the context node's own name.
func selfContainedVal(e expr) bool {
	switch v := e.(type) {
	case stringLit, numberLit, varRef:
		return true
	case *negExpr:
		return selfContainedVal(v.e)
	case *binaryExpr:
		if v.op == opUnion {
			return false
		}
		return selfContainedVal(v.l) && selfContainedVal(v.r)
	case *funcCall:
		switch v.name {
		case "name", "local-name", "true", "false":
			return len(v.args) == 0
		}
		if !matcherPureFns[v.name] || len(v.args) == 0 {
			return false
		}
		for _, a := range v.args {
			if !selfContainedVal(a) {
				return false
			}
		}
		return true
	}
	return false
}

// stackChain is the chain depth (document node included) up to which
// Match and matchSteps keep their working state on the stack; deeper
// chains fall back to heap slices.
const stackChain = 16

// Match reports whether the expression selects n when evaluated from n's
// document node. Nodes detached from any document never match. For a
// predicate-free path and a chain of at most stackChain nodes it allocates
// nothing.
func (m *NodeMatcher) Match(n *xmltree.Node, vars Vars) (bool, error) {
	if n == nil {
		return false, errNilContext
	}
	var buf [stackChain]*xmltree.Node
	return m.MatchChain(AppendChain(buf[:0], n), vars)
}

// AppendChain appends n's root-to-node chain — its topmost ancestor first,
// n last — to dst and returns the extended slice. Callers that run several
// matchers against one node build the chain once and hand it to
// MatchChain; passing a stack array's empty slice as dst keeps short
// chains off the heap.
func AppendChain(dst []*xmltree.Node, n *xmltree.Node) []*xmltree.Node {
	start := len(dst)
	for c := n; c != nil; c = c.Parent() {
		dst = append(dst, c)
	}
	reverseNodes(dst[start:])
	return dst
}

// MatchChain is Match over a chain built by AppendChain. The chain is only
// read. A chain that does not start at a document node never matches.
func (m *NodeMatcher) MatchChain(chain []*xmltree.Node, vars Vars) (bool, error) {
	if len(chain) == 0 || chain[0].Kind() != xmltree.KindDocument {
		return false, nil
	}
	for _, steps := range m.alts {
		ok, err := matchSteps(steps, chain, vars)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// matchSteps runs an NFA over the root-to-node chain. exact[j] bit i means
// "the first i steps select chain[j]"; gap[j] bit i means "step i is a
// descendant(-or-self) step whose walk has reached chain[j] and may
// continue downward". A gap may not cross into an attribute node — the
// descendant axis walks Children() only, and attributes are reachable
// solely through an explicit attribute step (matching axisNodes/filterTest
// in eval.go); below an attribute, its text child is an ordinary child
// again.
func matchSteps(steps []step, chain []*xmltree.Node, vars Vars) (bool, error) {
	var exactBuf, gapBuf [stackChain]uint64
	var exact, gap []uint64
	if len(chain) <= stackChain {
		exact, gap = exactBuf[:len(chain)], gapBuf[:len(chain)]
	} else {
		exact, gap = make([]uint64, len(chain)), make([]uint64, len(chain))
	}
	exact[0] = 1 // zero steps consumed at the document node
	for j := 0; j < len(chain); j++ {
		// Land gaps carried to this node (a descendant step may land here
		// and also keep descending, so landing does not close the gap).
		for i := 0; i < len(steps); i++ {
			if gap[j]&(1<<uint(i)) == 0 {
				continue
			}
			ok, err := matchStepAt(steps[i], chain[j], vars)
			if err != nil {
				return false, err
			}
			if ok {
				exact[j] |= 1 << uint(i+1)
			}
		}
		// Close self-transitions at this node, ascending so a newly
		// consumed step can enable the next one at the same node.
		for i := 0; i < len(steps); i++ {
			if exact[j]&(1<<uint(i)) == 0 {
				continue
			}
			st := steps[i]
			switch st.axis {
			case AxisSelf, AxisDescendantOrSelf:
				ok, err := matchStepAt(st, chain[j], vars)
				if err != nil {
					return false, err
				}
				if ok {
					exact[j] |= 1 << uint(i+1)
				}
			}
			if st.axis == AxisDescendant || st.axis == AxisDescendantOrSelf {
				gap[j] |= 1 << uint(i)
			}
		}
		if j+1 == len(chain) {
			break
		}
		next := chain[j+1]
		intoAttr := next.Kind() == xmltree.KindAttribute
		if !intoAttr {
			gap[j+1] |= gap[j]
		}
		for i := 0; i < len(steps); i++ {
			if exact[j]&(1<<uint(i)) == 0 {
				continue
			}
			st := steps[i]
			if (st.axis == AxisChild && !intoAttr) || (st.axis == AxisAttribute && intoAttr) {
				ok, err := matchStepAt(st, next, vars)
				if err != nil {
					return false, err
				}
				if ok {
					exact[j+1] |= 1 << uint(i+1)
				}
			}
		}
	}
	return exact[len(chain)-1]&(1<<uint(len(steps))) != 0, nil
}

// matchStepAt applies one step's node test and predicates to a single
// candidate node. Predicates run with position 1 of 1 — sound because the
// fragment bans positional predicates.
func matchStepAt(st step, n *xmltree.Node, vars Vars) (bool, error) {
	if !stepNodeOK(st, n) {
		return false, nil
	}
	for _, p := range st.preds {
		v, err := p.eval(&evalCtx{node: n, pos: 1, size: 1, vars: vars})
		if err != nil {
			return false, err
		}
		if _, isNum := v.(Number); isNum {
			return false, fmt.Errorf("xpath: positional predicate reached the per-node matcher")
		}
		if !v.Bool() {
			return false, nil
		}
	}
	return true, nil
}

// stepNodeOK mirrors filterTest for a single candidate: the principal node
// type is Attribute for the attribute axis and Element otherwise.
func stepNodeOK(st step, n *xmltree.Node) bool {
	principal := xmltree.KindElement
	if st.axis == AxisAttribute {
		principal = xmltree.KindAttribute
	}
	switch st.test.kind {
	case testNode:
		return true
	case testText:
		return n.Kind() == xmltree.KindText
	case testComment:
		return n.Kind() == xmltree.KindComment
	case testPI:
		return false
	case testWildcard:
		return n.Kind() == principal
	case testName:
		return n.Kind() == principal && n.Label() == st.test.name
	default:
		return false
	}
}
