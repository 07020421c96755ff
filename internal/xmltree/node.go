// Package xmltree implements the XML database tree of §3.1 of the paper: a
// document is a tree of nodes, each with a unique persistent identifier (a
// labeling.Label) and a label (an element name or a text value). The
// identifier of a node never changes across updates, and the tree geometry
// predicates of §3.2 (child, parent, descendant, ancestor, siblings,
// following, preceding) are derivable from identifiers alone.
//
// The paper models only document, element and text nodes. This package adds
// attribute nodes for XML fidelity: an attribute is modeled as a node whose
// label is the attribute name with a single text child carrying the value,
// so the access control machinery applies to attributes unchanged.
//
// Three invariants keep copying and lookups cheap:
//
//   - Node ordinals. Every node, the document node included (0), carries
//     a small integer (Node.Ord) taken from its document's counter when
//     the node is created, by parsing, an insert, SetAttribute, Graft or
//     mirroring. Clone copies every ordinal and the counter, so the
//     ordinals of a document and of all its clones, and of their clones,
//     form one space (a lineage) in which an ordinal is never handed out
//     twice: a removed node's ordinal is not reused even when the labeling
//     scheme re-issues its identifier. Like the identifier it is
//     persistent, so it keys per-node tables (policy.Perms) by slice
//     index instead of by identifier text. Document.OrdLimit bounds every
//     ordinal in use. A mirrored view is a new lineage: its nodes share
//     the source's identifiers but not its ordinals.
//
//   - Cached identifier text. Every node, the document node included
//     ("/"), stores the canonical text of its identifier, rendered once
//     when the node is created (Node.IDString). Because an identifier
//     never changes, neither does its text; the label index, Clone and
//     callers keyed by identifier text use it instead of re-rendering
//     Label.String.
//
//   - Carved slices. Clone allocates every child and attribute list from
//     one shared backing array, each carved with a full slice expression
//     (b[lo:lo:hi]) so its capacity ends where its neighbour's list
//     begins. Any append that grows a list (insertBeside,
//     MirrorChild, SetAttribute, AppendChild) then reallocates instead of
//     overwriting the next list. Code that grows a list in place must go
//     through append; writing past len(list) into spare capacity is
//     forbidden.
package xmltree

import (
	"fmt"
	"sort"
	"strings"

	"securexml/internal/labeling"
)

// Kind discriminates node types. It is a byte so that it packs with the
// node ordinal into one word of Node.
type Kind uint8

// Node kinds. The paper's model has Document, Element and Text; Attribute
// and Comment are XML-fidelity extensions.
const (
	KindDocument Kind = iota
	KindElement
	KindText
	KindAttribute
	KindComment
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindDocument:
		return "document"
	case KindElement:
		return "element"
	case KindText:
		return "text"
	case KindAttribute:
		return "attribute"
	case KindComment:
		return "comment"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Restricted is the replacement label shown in user views for nodes on which
// the user holds only the position privilege (§2.1, axiom 17). The semantics
// is Sandhu & Jajodia's "the label exists but you are not allowed to see it".
const Restricted = "RESTRICTED"

// Node is one node of a document tree.
//
// A Node belongs to exactly one Document and must only be mutated through
// Document methods, which maintain the label index and version counter.
type Node struct {
	kind     Kind
	ord      uint32 // see Ord; packed beside kind so Node stays 128 bytes
	label    string
	id       labeling.Label
	idText   string // id.String(), rendered once when the node is created
	parent   *Node
	children []*Node // document order; attribute nodes are held in attrs
	attrs    []*Node // attribute nodes of an element, in definition order
	doc      *Document
}

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Label returns the node's label: the element name for elements, the text
// value for text nodes, the attribute name for attributes, "/" for the
// document node.
func (n *Node) Label() string { return n.label }

// ID returns the node's persistent identifier. The returned label must not
// be mutated.
func (n *Node) ID() labeling.Label { return n.id }

// Ord returns the node's ordinal: a small integer unique within the node's
// document lineage (the document and everything cloned from it), assigned
// when the node is created and never reused (see the package doc). The
// document node's ordinal is 0.
func (n *Node) Ord() uint32 { return n.ord }

// IDString returns the canonical text of the node's identifier, equal to
// ID().String(). The text is rendered once, when the node is created, and
// cached: identifiers never change (§3.1), so neither does their text, and
// reading it allocates nothing.
func (n *Node) IDString() string { return n.idText }

// Parent returns the parent node, or nil for the document node.
func (n *Node) Parent() *Node { return n.parent }

// Document returns the document the node belongs to.
func (n *Node) Document() *Document { return n.doc }

// Children returns the node's children in document order. Attribute nodes
// are not included; use Attributes. The returned slice must not be modified.
func (n *Node) Children() []*Node { return n.children }

// Attributes returns an element's attribute nodes in definition order. The
// returned slice must not be modified.
func (n *Node) Attributes() []*Node { return n.attrs }

// FirstChild returns the first child in document order, or nil.
func (n *Node) FirstChild() *Node {
	if len(n.children) == 0 {
		return nil
	}
	return n.children[0]
}

// LastChild returns the last child in document order, or nil.
func (n *Node) LastChild() *Node {
	if len(n.children) == 0 {
		return nil
	}
	return n.children[len(n.children)-1]
}

// ChildIndex returns the position of child c under n, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, k := range n.children {
		if k == c {
			return i
		}
	}
	return -1
}

// PrecedingSibling returns the sibling immediately before n, or nil.
func (n *Node) PrecedingSibling() *Node {
	p := n.parent
	if p == nil || n.kind == KindAttribute {
		return nil
	}
	i := p.ChildIndex(n)
	if i <= 0 {
		return nil
	}
	return p.children[i-1]
}

// FollowingSibling returns the sibling immediately after n, or nil.
func (n *Node) FollowingSibling() *Node {
	p := n.parent
	if p == nil || n.kind == KindAttribute {
		return nil
	}
	i := p.ChildIndex(n)
	if i < 0 || i == len(p.children)-1 {
		return nil
	}
	return p.children[i+1]
}

// Attr returns the attribute node with the given name, or nil.
func (n *Node) Attr(name string) *Node {
	for _, a := range n.attrs {
		if a.label == name {
			return a
		}
	}
	return nil
}

// AttrValue returns the string value of the named attribute; ok reports
// whether the attribute exists.
func (n *Node) AttrValue(name string) (value string, ok bool) {
	a := n.Attr(name)
	if a == nil {
		return "", false
	}
	return a.StringValue(), true
}

// StringValue returns the XPath string-value of the node: the concatenated
// text descendants for document/element/attribute nodes, the content for
// text and comment nodes.
func (n *Node) StringValue() string {
	switch n.kind {
	case KindText, KindComment:
		return n.label
	default:
		var b strings.Builder
		n.walkText(&b)
		return b.String()
	}
}

func (n *Node) walkText(b *strings.Builder) {
	for _, c := range n.children {
		switch c.kind {
		case KindText:
			b.WriteString(c.label)
		case KindElement:
			c.walkText(b)
		}
	}
}

// Name returns the XPath "expanded name" of the node: the element or
// attribute name, and "" for other kinds.
func (n *Node) Name() string {
	switch n.kind {
	case KindElement, KindAttribute:
		return n.label
	default:
		return ""
	}
}

// IsDescendantOf reports whether n is a strict descendant of m, derived from
// the persistent identifiers (not from pointers), as §3.1 requires.
// Attribute identifiers live under their owner element's identifier, so the
// relation covers them uniformly.
func (n *Node) IsDescendantOf(m *Node) bool { return n.id.IsDescendantOf(m.id) }

// Walk visits n and every descendant (attributes included, before children)
// in document order. If fn returns false the subtree below the current node
// is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, a := range n.attrs {
		a.Walk(fn)
	}
	for _, c := range n.children {
		c.Walk(fn)
	}
}

// Subtree returns n and all its descendants in document order.
func (n *Node) Subtree() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		out = append(out, m)
		return true
	})
	return out
}

// Path returns a human-readable element path for diagnostics, e.g.
// "/patients/franck/diagnosis" or "/patients/franck/@id". Text nodes render
// as "text()". It is not a unique identifier — labels are.
func (n *Node) Path() string {
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
			parts = append(parts, "@"+m.label)
		default:
			parts = append(parts, m.label)
		}
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// CompareDocOrder orders nodes by document order using their persistent
// identifiers. It returns -1, 0 or +1.
func CompareDocOrder(a, b *Node) int { return a.id.Compare(b.id) }

// SortDocOrder sorts nodes in place into document order and removes
// duplicates, returning the possibly shortened slice.
func SortDocOrder(nodes []*Node) []*Node {
	sort.Slice(nodes, func(i, j int) bool { return CompareDocOrder(nodes[i], nodes[j]) < 0 })
	out := nodes[:0]
	for i, n := range nodes {
		if i == 0 || n != nodes[i-1] {
			out = append(out, n)
		}
	}
	return out
}
