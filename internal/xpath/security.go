package xpath

import "securexml/internal/xmltree"

// Security is an optional evaluation-time filter implementing the
// query-filtering enforcement sketched in the paper's conclusion (§5,
// after Fundulaki & Marx [9]): instead of materializing a user view and
// querying it, the query runs on the source document while the evaluator
//
//   - skips nodes the user may not know exist (Visible), pruning whole
//     subtrees exactly like view derivation does, and
//   - substitutes the effective label of position-only nodes (Label), so
//     that node tests and string-values observe RESTRICTED rather than the
//     hidden label — the paper's open question of "how answers to filtered
//     queries could include RESTRICTED labels".
//
// With both functions derived from the same perm relation, a filtered
// query over the source is answer-equivalent to the plain query over the
// materialized view; internal/qfilter packages that construction and
// property-tests the equivalence.
//
// Security is xmltree.Filter, so the serializer and xmltree.CopyFiltered
// read the same value a filtered evaluation does.
type Security = xmltree.Filter

// EvalFiltered evaluates the expression with node as the context node
// under the security filter.
func (c *Compiled) EvalFiltered(node *xmltree.Node, vars Vars, sec *Security) (Value, error) {
	if node == nil {
		return nil, errNilContext
	}
	return c.root.eval(&evalCtx{node: node, pos: 1, size: 1, vars: vars, sec: sec})
}

// SelectFiltered evaluates under the security filter and returns the
// node-set (of source nodes) in document order.
func (c *Compiled) SelectFiltered(node *xmltree.Node, vars Vars, sec *Security) (NodeSet, error) {
	v, err := c.EvalFiltered(node, vars, sec)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, errNotNodeSetf(c.src, v)
	}
	return ns, nil
}
