package xpath

import (
	"errors"
	"fmt"
	"math"

	"securexml/internal/xmltree"
)

// Vars supplies variable bindings (e.g. the paper's $USER) to evaluation.
type Vars map[string]Value

// ErrNotNodeSet is returned by Select when the expression evaluates to an
// atomic value instead of a node-set.
var ErrNotNodeSet = errors.New("xpath: expression does not evaluate to a node-set")

// evalCtx carries the dynamic evaluation context.
type evalCtx struct {
	node *xmltree.Node
	pos  int // proximity position, 1-based
	size int // context size
	vars Vars
	sec  *Security // nil = unfiltered
}

// errNilContext is returned when evaluation is attempted without a node.
var errNilContext = errors.New("xpath: nil context node")

func errNotNodeSetf(src string, v Value) error {
	return fmt.Errorf("%w: %q yields a %s", ErrNotNodeSet, src, v.TypeName())
}

// Eval evaluates the compiled expression with node as the context node and
// returns the resulting value.
func (c *Compiled) Eval(node *xmltree.Node, vars Vars) (Value, error) {
	if node == nil {
		return nil, errNilContext
	}
	return c.root.eval(&evalCtx{node: node, pos: 1, size: 1, vars: vars})
}

// Select evaluates the expression and returns the resulting node-set in
// document order. It fails with ErrNotNodeSet for atomic results.
func (c *Compiled) Select(node *xmltree.Node, vars Vars) (NodeSet, error) {
	v, err := c.Eval(node, vars)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, errNotNodeSetf(c.src, v)
	}
	return ns, nil
}

// Select compiles path and selects from the document root of doc.
func Select(doc *xmltree.Document, path string, vars Vars) (NodeSet, error) {
	c, err := Compile(path)
	if err != nil {
		return nil, err
	}
	return c.Select(doc.Root(), vars)
}

// Matches reports whether node n is one of the nodes addressed by the
// compiled path evaluated from the document node — the xpath(p, n, v)
// predicate of §3.4 as a membership test.
func (c *Compiled) Matches(n *xmltree.Node, vars Vars) (bool, error) {
	ns, err := c.Select(n.Document().Root(), vars)
	if err != nil {
		return false, err
	}
	for _, m := range ns {
		if m == n {
			return true, nil
		}
	}
	return false, nil
}

// --- expression evaluation ---------------------------------------------------

func (n numberLit) eval(*evalCtx) (Value, error) { return Number(n.val), nil }
func (s stringLit) eval(*evalCtx) (Value, error) { return String(s), nil }

func (v varRef) eval(ctx *evalCtx) (Value, error) {
	if ctx.vars != nil {
		if val, ok := ctx.vars[string(v)]; ok {
			return val, nil
		}
	}
	return nil, fmt.Errorf("xpath: undefined variable $%s", string(v))
}

func (n *negExpr) eval(ctx *evalCtx) (Value, error) {
	v, err := n.e.eval(ctx)
	if err != nil {
		return nil, err
	}
	return Number(-v.Num()), nil
}

func (b *binaryExpr) eval(ctx *evalCtx) (Value, error) {
	switch b.op {
	case opOr, opAnd:
		l, err := b.l.eval(ctx)
		if err != nil {
			return nil, err
		}
		if b.op == opOr && l.Bool() {
			return Boolean(true), nil
		}
		if b.op == opAnd && !l.Bool() {
			return Boolean(false), nil
		}
		r, err := b.r.eval(ctx)
		if err != nil {
			return nil, err
		}
		return Boolean(r.Bool()), nil
	}
	l, err := b.l.eval(ctx)
	if err != nil {
		return nil, err
	}
	r, err := b.r.eval(ctx)
	if err != nil {
		return nil, err
	}
	switch b.op {
	case opEq, opNeq, opLt, opLeq, opGt, opGeq:
		ok, err := compareValues(b.op, l, r, ctx.sec)
		if err != nil {
			return nil, err
		}
		return Boolean(ok), nil
	case opPlus:
		return Number(l.Num() + r.Num()), nil
	case opMinus:
		return Number(l.Num() - r.Num()), nil
	case opMul:
		return Number(l.Num() * r.Num()), nil
	case opDiv:
		return Number(l.Num() / r.Num()), nil
	case opMod:
		return Number(math.Mod(l.Num(), r.Num())), nil
	case opUnion:
		ln, lok := l.(NodeSet)
		rn, rok := r.(NodeSet)
		if !lok || !rok {
			return nil, fmt.Errorf("xpath: '|' requires node-sets, got %s and %s", l.TypeName(), r.TypeName())
		}
		merged := make([]*xmltree.Node, 0, len(ln)+len(rn))
		merged = append(merged, ln...)
		merged = append(merged, rn...)
		return NodeSet(xmltree.SortDocOrder(merged)), nil
	default:
		return nil, fmt.Errorf("xpath: unknown operator %s", b.op)
	}
}

func (f *filterExpr) eval(ctx *evalCtx) (Value, error) {
	v, err := f.primary.eval(ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: predicate applied to %s", v.TypeName())
	}
	for _, pred := range f.preds {
		ns, err = applyPredicate(ns, pred, ctx, false)
		if err != nil {
			return nil, err
		}
	}
	return ns, nil
}

func (p *pathExpr) eval(ctx *evalCtx) (Value, error) {
	var current NodeSet
	switch {
	case p.base != nil:
		v, err := p.base.eval(ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: path step applied to %s", v.TypeName())
		}
		current = ns
	case p.absolute:
		root := ctx.node
		for root.Parent() != nil {
			root = root.Parent()
		}
		current = NodeSet{root}
		if rest, ns, ok := p.indexFastPath(root, ctx); ok {
			var err error
			current = ns
			for _, st := range rest {
				current, err = evalStep(current, st, ctx)
				if err != nil {
					return nil, err
				}
			}
			return current, nil
		}
	default:
		current = NodeSet{ctx.node}
	}
	for _, st := range p.steps {
		next, err := evalStep(current, st, ctx)
		if err != nil {
			return nil, err
		}
		current = next
	}
	return current, nil
}

// indexFastPath recognizes the compiled form of absolute //name —
// /descendant-or-self::node()/child::name — and answers its first two
// steps from the document's element-name index instead of walking the
// tree. It applies only without a security filter (visibility pruning is
// hereditary and needs the walk) and without predicates on the name step
// (their proximity positions are per-parent). Returns the remaining steps
// and the candidate set.
func (p *pathExpr) indexFastPath(root *xmltree.Node, ctx *evalCtx) ([]step, NodeSet, bool) {
	if ctx.sec != nil || len(p.steps) < 2 {
		return nil, nil, false
	}
	s0, s1 := p.steps[0], p.steps[1]
	if s0.axis != AxisDescendantOrSelf || s0.test.kind != testNode || len(s0.preds) != 0 {
		return nil, nil, false
	}
	if s1.axis != AxisChild || s1.test.kind != testName || len(s1.preds) != 0 {
		return nil, nil, false
	}
	doc := root.Document()
	if doc == nil {
		return nil, nil, false
	}
	return p.steps[2:], NodeSet(doc.ElementsByName(s1.test.name)), true
}

// evalStep applies one location step to every node of the input set and
// merges the results in document order.
func evalStep(input NodeSet, st step, ctx *evalCtx) (NodeSet, error) {
	var merged []*xmltree.Node
	for _, n := range input {
		cands, unfiltered := axisNodes(n, st.axis, ctx.sec)
		cands = filterTest(cands, unfiltered, st.test, st.axis, ctx.sec)
		selected := NodeSet(cands)
		var err error
		for _, pred := range st.preds {
			selected, err = applyPredicate(selected, pred, ctx, st.axis.isReverse())
			if err != nil {
				return nil, err
			}
		}
		merged = append(merged, selected...)
	}
	if len(input) <= 1 {
		// A single context node yields results already in document order
		// and free of duplicates; skip the merge sort.
		return NodeSet(merged), nil
	}
	return NodeSet(xmltree.SortDocOrder(merged)), nil
}

// applyPredicate keeps the nodes for which the predicate holds. nodes must
// be in axis order (reverse axes pass reverse=true with nodes in document
// order, so positions are counted from the far end).
func applyPredicate(nodes NodeSet, pred expr, ctx *evalCtx, reverse bool) (NodeSet, error) {
	// Always allocate: the input may alias a caller-owned node-set (e.g. a
	// variable binding) that must not be disturbed.
	out := make(NodeSet, 0, len(nodes))
	size := len(nodes)
	for i, n := range nodes {
		pos := i + 1
		if reverse {
			pos = size - i
		}
		v, err := pred.eval(&evalCtx{node: n, pos: pos, size: size, vars: ctx.vars, sec: ctx.sec})
		if err != nil {
			return nil, err
		}
		keep := false
		if num, ok := v.(Number); ok {
			keep = float64(num) == float64(pos)
		} else {
			keep = v.Bool()
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

// axisNodes returns the nodes reachable from n along the axis, in document
// order. When sec carries a visibility filter, invisible nodes are skipped
// and — because invisibility is hereditary (children of an invisible node
// are invisible, mirroring axioms 16–17) — their subtrees are pruned. The
// child, attribute and sibling axes instead return the stored node slice
// as is, with unfiltered set: filterTest then checks visibility together
// with the node test, so a step copies only the nodes it selects. The
// caller must not modify the returned slice.
func axisNodes(n *xmltree.Node, axis Axis, sec *Security) (nodes []*xmltree.Node, unfiltered bool) {
	switch axis {
	case AxisSelf:
		return []*xmltree.Node{n}, false
	case AxisChild:
		return n.Children(), true
	case AxisAttribute:
		return n.Attributes(), true
	case AxisParent:
		if p := n.Parent(); p != nil {
			return []*xmltree.Node{p}, false
		}
		return nil, false
	case AxisAncestor:
		var out []*xmltree.Node
		for p := n.Parent(); p != nil; p = p.Parent() {
			out = append(out, p)
		}
		reverseNodes(out)
		return out, false
	case AxisAncestorOrSelf:
		out := []*xmltree.Node{n}
		for p := n.Parent(); p != nil; p = p.Parent() {
			out = append(out, p)
		}
		reverseNodes(out)
		return out, false
	case AxisDescendant:
		var out []*xmltree.Node
		collectDescendants(n, &out, sec)
		return out, false
	case AxisDescendantOrSelf:
		out := []*xmltree.Node{n}
		collectDescendants(n, &out, sec)
		return out, false
	case AxisFollowingSibling:
		p := n.Parent()
		if p == nil || n.Kind() == xmltree.KindAttribute {
			return nil, false
		}
		i := p.ChildIndex(n)
		if i < 0 {
			return nil, false
		}
		return p.Children()[i+1:], true
	case AxisPrecedingSibling:
		p := n.Parent()
		if p == nil || n.Kind() == xmltree.KindAttribute {
			return nil, false
		}
		i := p.ChildIndex(n)
		if i <= 0 {
			return nil, false
		}
		return p.Children()[:i], true
	case AxisFollowing:
		// All nodes after n in document order, excluding descendants.
		// Attribute nodes are not on the following/preceding axes per spec.
		var out []*xmltree.Node
		for cur := n; cur != nil; cur = cur.Parent() {
			if cur.Kind() == xmltree.KindAttribute {
				continue
			}
			for sib := cur.FollowingSibling(); sib != nil; sib = sib.FollowingSibling() {
				if !sec.IsVisible(sib) {
					continue
				}
				out = append(out, sib)
				collectDescendants(sib, &out, sec)
			}
		}
		return xmltree.SortDocOrder(out), false
	case AxisPreceding:
		var out []*xmltree.Node
		for cur := n; cur != nil; cur = cur.Parent() {
			if cur.Kind() == xmltree.KindAttribute {
				continue
			}
			for sib := cur.PrecedingSibling(); sib != nil; sib = sib.PrecedingSibling() {
				if !sec.IsVisible(sib) {
					continue
				}
				out = append(out, sib)
				collectDescendants(sib, &out, sec)
			}
		}
		return xmltree.SortDocOrder(out), false
	default:
		return nil, false
	}
}

// collectDescendants appends all visible descendants of n (excluding
// attribute nodes, which are not on the descendant axis) in document
// order, pruning below invisible nodes.
func collectDescendants(n *xmltree.Node, out *[]*xmltree.Node, sec *Security) {
	for _, c := range n.Children() {
		if !sec.IsVisible(c) {
			continue
		}
		*out = append(*out, c)
		collectDescendants(c, out, sec)
	}
}

func reverseNodes(ns []*xmltree.Node) {
	for i, j := 0, len(ns)-1; i < j; i, j = i+1, j-1 {
		ns[i], ns[j] = ns[j], ns[i]
	}
}

// filterTest keeps the candidates matching the node test, and the visible
// ones when the candidates are unfiltered. The principal node type is
// Attribute for the attribute axis and Element otherwise.
func filterTest(cands []*xmltree.Node, unfiltered bool, nt nodeTest, axis Axis, sec *Security) []*xmltree.Node {
	principal := xmltree.KindElement
	if axis == AxisAttribute {
		principal = xmltree.KindAttribute
	}
	var out []*xmltree.Node
	for _, c := range cands {
		if unfiltered && !sec.IsVisible(c) {
			continue
		}
		switch nt.kind {
		case testNode:
			out = append(out, c)
		case testText:
			if c.Kind() == xmltree.KindText {
				out = append(out, c)
			}
		case testComment:
			if c.Kind() == xmltree.KindComment {
				out = append(out, c)
			}
		case testPI:
			// Processing instructions are not stored in the model.
		case testWildcard:
			if c.Kind() == principal {
				out = append(out, c)
			}
		case testName:
			if c.Kind() == principal && sec.EffectiveLabel(c) == nt.name {
				out = append(out, c)
			}
		}
	}
	return out
}
