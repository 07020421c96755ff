package xmltree

import (
	"slices"
	"strings"
)

// Filter presents a document as one user's view shows it (axioms 15–17)
// without copying it: a node exists for the reader iff Visible admits it
// and every ancestor, and it carries the label Label returns (RESTRICTED
// for a position-only node). It is the one definition every consumer of a
// view reads: the XPath evaluator (xpath.Security is this type), the
// serializer (WriteOptions.Filter) and CopyFiltered. Consumers walk from
// the top and never descend below a node Visible rejects, so invisibility
// is hereditary without Visible looking at ancestors.
//
// A nil *Filter, or nil functions, present the stored tree: everything
// visible, stored labels. Every method is nil-safe.
type Filter struct {
	// Visible reports whether the node exists for this reader.
	Visible func(*Node) bool
	// Label returns the node's effective label (e.g. RESTRICTED).
	Label func(*Node) string
}

// IsVisible reports whether n passes the filter.
func (f *Filter) IsVisible(n *Node) bool {
	return f == nil || f.Visible == nil || f.Visible(n)
}

// EffectiveLabel returns the label the filter presents for n.
func (f *Filter) EffectiveLabel(n *Node) string {
	if f == nil || f.Label == nil {
		return n.label
	}
	return f.Label(n)
}

// StringValue returns the XPath string-value of n as the filter presents
// it: the effective labels of its visible text descendants, reached
// through visible elements only (the effective label itself for text and
// comment nodes).
func (f *Filter) StringValue(n *Node) string {
	if f == nil || (f.Visible == nil && f.Label == nil) {
		return n.StringValue()
	}
	switch n.kind {
	case KindText, KindComment:
		return f.EffectiveLabel(n)
	default:
		return string(f.appendText(nil, n))
	}
}

// appendText appends the filtered string-value of n's children to b.
func (f *Filter) appendText(b []byte, n *Node) []byte {
	for _, c := range n.children {
		if !f.IsVisible(c) {
			continue
		}
		switch c.kind {
		case KindText:
			b = append(b, f.EffectiveLabel(c)...)
		case KindElement:
			b = f.appendText(b, c)
		}
	}
	return b
}

// Path renders n's path as the filter presents it: Node.Path with every
// element and attribute label replaced by its effective label, so a
// position-only ancestor reads RESTRICTED. It is meaningful only for a
// node whose ancestors are all visible, which holds for every node a
// filtered walk reaches.
func (f *Filter) Path(n *Node) string {
	if n.kind == KindDocument {
		return "/"
	}
	var parts []string
	for m := n; m != nil && m.kind != KindDocument; m = m.parent {
		switch m.kind {
		case KindText:
			parts = append(parts, "text()")
		case KindComment:
			parts = append(parts, "comment()")
		case KindAttribute:
			parts = append(parts, "@"+f.EffectiveLabel(m))
		default:
			parts = append(parts, f.EffectiveLabel(m))
		}
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// CopyFiltered copies the nodes ns, as f presents them, into one fresh
// frozen document and returns their copies in the order of ns. Each copy
// carries its node's visible subtree, and its ancestors come along as
// well, so the copy of a node has the parent, path and string-value the
// user's view gives it; what the copy lacks is the rest of the view. The
// cost is the size of the answer plus its depth, not of the document.
//
// Copies keep their nodes' identifiers and ordinals, as Clone does: the
// document is a pruned clone of the source's lineage, and a copy names
// the same logical node its original does. Every node of ns must be
// visible under f, with visible ancestors, as every node of a filtered
// evaluation is.
func CopyFiltered(ns []*Node, f *Filter) []*Node {
	if len(ns) == 0 {
		return nil
	}
	src := ns[0].doc
	d := New(nil)
	if src != nil {
		d.scheme, d.nextOrd, d.fragment = src.scheme, src.nextOrd, src.fragment
	}
	out := make([]*Node, len(ns))
	for i, n := range ns {
		out[i] = d.copySubtree(n, f)
	}
	d.Freeze()
	return out
}

// copySubtree returns n's copy in d with n's visible subtree below it.
func (d *Document) copySubtree(n *Node, f *Filter) *Node {
	m := d.counterpart(n, f)
	for _, a := range n.attrs {
		if f.IsVisible(a) {
			d.copySubtree(a, f)
		}
	}
	for _, c := range n.children {
		if f.IsVisible(c) {
			d.copySubtree(c, f)
		}
	}
	return m
}

// counterpart returns n's copy in d, creating it and any missing ancestor
// copy. A new copy is spliced into its parent's list at the position its
// identifier gives (§3.1), so copies come out in document order whatever
// order they are made in.
func (d *Document) counterpart(n *Node, f *Filter) *Node {
	if n == nil || n.kind == KindDocument {
		return d.root
	}
	if m := d.index[n.idText]; m != nil {
		return m
	}
	p := d.counterpart(n.parent, f)
	m := &Node{kind: n.kind, ord: n.ord, label: f.EffectiveLabel(n), id: n.id, idText: n.idText, parent: p}
	d.register(m)
	list := &p.children
	if n.kind == KindAttribute {
		list = &p.attrs
	}
	i, _ := slices.BinarySearchFunc(*list, m, func(a, b *Node) int { return a.id.Compare(b.id) })
	*list = slices.Insert(*list, i, m)
	return m
}
