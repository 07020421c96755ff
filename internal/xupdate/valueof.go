package xupdate

import (
	"fmt"
	"strings"

	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// valueOfMarker prefixes the label of the comment nodes the wire parser
// plants as xupdate:value-of placeholders inside content fragments. The
// wire parser discards real XML comments, so marker nodes can only come
// from <xupdate:value-of select="..."/> — no collision is possible.
const valueOfMarker = "\x00xupdate:value-of\x00"

// Variable is the Kind of <xupdate:variable name="..." select="..."/>: it
// binds the selected node-set (or the evaluated value) to $name for the
// remaining operations of the modification document.
const Variable Kind = 100

// VarName returns the variable name of a Variable op (stored in NewValue).
func (op *Op) VarName() string { return op.NewValue }

// addValueOfPlaceholder plants a placeholder carrying the select
// expression under cur.
func addValueOfPlaceholder(frag *xmltree.Document, cur *xmltree.Node, sel string) error {
	if _, err := xpath.Compile(sel); err != nil {
		return fmt.Errorf("xupdate: value-of select: %w", err)
	}
	_, err := frag.AppendChild(cur, xmltree.KindComment, valueOfMarker+sel)
	return err
}

// HasDynamicContent reports whether the op's content contains value-of
// placeholders that must be expanded against a document at execution time.
func (op *Op) HasDynamicContent() bool {
	if op.Content == nil {
		return false
	}
	found := false
	op.Content.Root().Walk(func(n *xmltree.Node) bool {
		if isPlaceholder(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isPlaceholder(n *xmltree.Node) bool {
	return n.Kind() == xmltree.KindComment && strings.HasPrefix(n.Label(), valueOfMarker)
}

// ExpandContent resolves the value-of placeholders of op.Content by
// evaluating their select expressions with ctx as the context node under
// sec (the user's permission filter under the secured executor, nil for
// the unsecured one, which reads the document as stored) and returns a
// fresh fragment with the placeholders replaced:
//
//   - a node-set result is replaced by deep copies of its nodes in
//     document order, copied through sec (xmltree.CopyFiltered), so only
//     what the user's view shows of them is copied (elements and text;
//     attribute results contribute their values as text, as serializing
//     an attribute alone would);
//   - an atomic result is replaced by a text node with its string value.
//
// Content without placeholders is returned unchanged.
func (op *Op) ExpandContent(ctx *xmltree.Node, vars xpath.Vars, sec *xpath.Security) (*xmltree.Document, error) {
	if !op.HasDynamicContent() {
		return op.Content, nil
	}
	out := xmltree.NewFragment(op.Content.Scheme())
	if err := expandInto(out, out.Root(), op.Content.Root(), ctx, vars, sec); err != nil {
		return nil, err
	}
	return out, nil
}

// expandInto copies src's children under dst, resolving placeholders.
func expandInto(out *xmltree.Document, dst, src *xmltree.Node, ctx *xmltree.Node, vars xpath.Vars, sec *xpath.Security) error {
	for _, a := range src.Attributes() {
		if _, err := out.SetAttribute(dst, a.Label(), a.StringValue()); err != nil {
			return err
		}
	}
	for _, c := range src.Children() {
		if isPlaceholder(c) {
			if err := resolvePlaceholder(out, dst, c, ctx, vars, sec); err != nil {
				return err
			}
			continue
		}
		nc, err := out.AppendChild(dst, c.Kind(), c.Label())
		if err != nil {
			return err
		}
		if err := expandInto(out, nc, c, ctx, vars, sec); err != nil {
			return err
		}
	}
	return nil
}

func resolvePlaceholder(out *xmltree.Document, dst, ph *xmltree.Node, ctx *xmltree.Node, vars xpath.Vars, sec *xpath.Security) error {
	sel := strings.TrimPrefix(ph.Label(), valueOfMarker)
	c, err := xpath.Compile(sel)
	if err != nil {
		return fmt.Errorf("xupdate: value-of select: %w", err)
	}
	v, err := c.EvalFiltered(ctx, vars, sec)
	if err != nil {
		return fmt.Errorf("xupdate: evaluating value-of %q: %w", sel, err)
	}
	ns, isNodeSet := v.(xpath.NodeSet)
	if !isNodeSet {
		_, err := out.AppendChild(dst, xmltree.KindText, v.Str())
		return err
	}
	for _, n := range xmltree.CopyFiltered(ns, sec) {
		switch n.Kind() {
		case xmltree.KindAttribute:
			if _, err := out.AppendChild(dst, xmltree.KindText, n.StringValue()); err != nil {
				return err
			}
		case xmltree.KindDocument:
			for _, ch := range n.Children() {
				if _, err := out.Graft(dst, xmltree.GraftAppend, ch); err != nil {
					return err
				}
			}
		default:
			if _, err := out.Graft(dst, xmltree.GraftAppend, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// BindVariable executes a Variable op: it evaluates the select expression
// with ctx as the context node under sec (nil reads the document as
// stored) and returns the binding to add to vars. A node-set binding
// holds the selected nodes of ctx's document, so every later use of it
// must read them under the same filter — as selection and ExpandContent
// under the secured executor do, copying what they take through it —
// for it to see no more than the user's view; navigation from a bound
// node then reaches its ancestors and siblings as the view shows them.
func (op *Op) BindVariable(ctx *xmltree.Node, vars xpath.Vars, sec *xpath.Security) (xpath.Value, error) {
	if op.Kind != Variable {
		return nil, fmt.Errorf("xupdate: BindVariable on %s", op.Kind)
	}
	c, err := xpath.Compile(op.Select)
	if err != nil {
		return nil, err
	}
	return c.EvalFiltered(ctx, vars, sec)
}
