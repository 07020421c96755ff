package xmltree

import (
	"errors"
	"fmt"
	"math"

	"securexml/internal/labeling"
)

// Document is a mutable XML document tree with persistent node identifiers.
//
// All structural mutations go through Document methods so that:
//
//   - every node receives a fresh identifier from the labeling scheme at
//     insertion time and keeps it until removal (§3.1: no renumbering);
//   - the label→node index stays consistent;
//   - the version counter advances on every mutation (used by higher layers
//     to invalidate cached permissions).
//
// Document is not safe for concurrent use; the core package serializes
// access.
type Document struct {
	scheme   labeling.Scheme
	root     *Node // the document node, label "/"
	index    map[string]*Node
	names    map[string]map[*Node]struct{} // element-name index
	version  uint64
	nextOrd  uint32 // the ordinal the next created node takes
	fragment bool   // fragments may carry several top-level nodes
	frozen   bool   // frozen documents reject every mutation (see Freeze)
}

// Errors returned by Document mutations.
var (
	ErrNotInDocument   = errors.New("xmltree: node does not belong to this document")
	ErrDocumentNode    = errors.New("xmltree: operation not applicable to the document node")
	ErrSecondRoot      = errors.New("xmltree: the document node already has a root element")
	ErrAttributeTarget = errors.New("xmltree: operation not applicable to an attribute node")
	ErrFrozen          = errors.New("xmltree: document is frozen (published snapshot generations are immutable; Clone first)")
	ErrInvalidName     = errors.New("xmltree: element and attribute labels must be XML names")
	ErrOrdinals        = errors.New("xmltree: node ordinals exhausted for this document lineage")
)

// New creates an empty document (just the document node) using the given
// labeling scheme. A nil scheme defaults to fracpath.
func New(scheme labeling.Scheme) *Document {
	if scheme == nil {
		scheme = labeling.NewFracPath()
	}
	d := &Document{
		scheme:  scheme,
		index:   make(map[string]*Node),
		names:   make(map[string]map[*Node]struct{}),
		nextOrd: 1,
	}
	d.root = &Node{kind: KindDocument, label: "/", id: labeling.DocumentLabel, idText: "/", doc: d}
	d.index["/"] = d.root
	return d
}

// NewFragment creates a construction buffer for XUpdate content trees. A
// fragment is an ordinary document except that its document node may carry
// any number of top-level nodes.
func NewFragment(scheme labeling.Scheme) *Document {
	d := New(scheme)
	d.fragment = true
	return d
}

// IsFragment reports whether the document is a multi-root fragment buffer.
func (d *Document) IsFragment() bool { return d.fragment }

// Scheme returns the labeling scheme of the document.
func (d *Document) Scheme() labeling.Scheme { return d.scheme }

// Root returns the document node (identifier "/").
func (d *Document) Root() *Node { return d.root }

// RootElement returns the single element child of the document node, or nil
// for an empty document.
func (d *Document) RootElement() *Node {
	for _, c := range d.root.children {
		if c.kind == KindElement {
			return c
		}
	}
	return nil
}

// Version returns the mutation counter. It increases on every structural or
// label change and never decreases.
func (d *Document) Version() uint64 { return d.version }

// NodeByID returns the node whose persistent identifier has the canonical
// text id (Node.IDString), or nil.
func (d *Document) NodeByID(id string) *Node { return d.index[id] }

// OrdLimit returns one more than the largest ordinal any node of the
// document's lineage has taken so far: every node of the document has
// Ord() < OrdLimit(), so it sizes a table indexed by ordinal.
func (d *Document) OrdLimit() uint32 { return d.nextOrd }

// mint hands out the next ordinal.
func (d *Document) mint() (uint32, error) {
	if d.nextOrd == math.MaxUint32 {
		return 0, ErrOrdinals
	}
	o := d.nextOrd
	d.nextOrd++
	return o, nil
}

// Len returns the number of nodes in the document, including the document
// node and attribute nodes.
func (d *Document) Len() int { return len(d.index) }

// Nodes returns every node in document order.
func (d *Document) Nodes() []*Node {
	out := make([]*Node, 0, len(d.index))
	d.root.Walk(func(n *Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// --- construction -----------------------------------------------------------

// siblingKey allocates a key strictly between the identifiers of lo and hi,
// where either may be nil meaning the open end.
func (d *Document) siblingKey(lo, hi *Node) (string, error) {
	var loK, hiK string
	if lo != nil {
		loK, _ = lo.id.Key()
	}
	if hi != nil {
		hiK, _ = hi.id.Key()
	}
	return d.scheme.Between(loK, hiK)
}

// childIDText renders parent.Child(key).String() from the parent's cached
// text, without walking the parent's label.
func childIDText(parent, key string) string {
	if parent == "/" {
		return "/" + key
	}
	return parent + "/" + key
}

func (d *Document) register(n *Node) {
	d.index[n.idText] = n
	n.doc = d
	if n.kind == KindElement {
		set := d.names[n.label]
		if set == nil {
			set = make(map[*Node]struct{})
			d.names[n.label] = set
		}
		set[n] = struct{}{}
	}
}

func (d *Document) unregister(n *Node) {
	delete(d.index, n.idText)
	n.doc = nil
	if n.kind == KindElement {
		if set := d.names[n.label]; set != nil {
			delete(set, n)
			if len(set) == 0 {
				delete(d.names, n.label)
			}
		}
	}
}

// ElementsByName returns every element with the given name, in document
// order — the name index backing the XPath engine's fast path for
// absolute //name queries. The returned slice is freshly allocated.
func (d *Document) ElementsByName(name string) []*Node {
	set := d.names[name]
	if len(set) == 0 {
		return nil
	}
	out := make([]*Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	return SortDocOrder(out)
}

// newChildNode allocates a node with a fresh identifier under parent, with a
// sibling key strictly between the keys of lo and hi (nil = open end).
func (d *Document) newChildNode(parent *Node, kind Kind, label string, lo, hi *Node) (*Node, error) {
	key, err := d.siblingKey(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("xmltree: allocating identifier under %s: %w", parent.Path(), err)
	}
	ord, err := d.mint()
	if err != nil {
		return nil, err
	}
	n := &Node{kind: kind, ord: ord, label: label, id: parent.id.Child(key), idText: childIDText(parent.idText, key), parent: parent}
	d.register(n)
	return n, nil
}

// MirrorChild appends a node under parent that carries a caller-supplied
// persistent identifier instead of a freshly allocated one; its ordinal
// comes from d's own counter, like any created node's. It exists for
// view materialization (§4.4.1): view nodes keep the source document's
// identifiers so that write operations selected on the view can be mapped
// back to source nodes. The identifier must be a child identifier of
// parent's and must be greater than the identifier of the last child (or
// last attribute, for attribute kinds) already mirrored — i.e. callers
// mirror in document order. Attribute kinds are attached to the attribute
// list.
func (d *Document) MirrorChild(parent *Node, kind Kind, label string, id labeling.Label) (*Node, error) {
	if err := d.checkOwned(parent); err != nil {
		return nil, err
	}
	if !id.IsChildOf(parent.id) {
		return nil, fmt.Errorf("xmltree: mirrored identifier %s is not a child of %s", id, parent.id)
	}
	text := childIDText(parent.idText, id[len(id)-1])
	if d.index[text] != nil {
		return nil, fmt.Errorf("xmltree: identifier %s already present", id)
	}
	var prev *Node
	if kind == KindAttribute {
		if len(parent.attrs) > 0 {
			prev = parent.attrs[len(parent.attrs)-1]
		}
	} else if len(parent.children) > 0 {
		prev = parent.children[len(parent.children)-1]
	}
	if prev != nil && prev.id.Compare(id) >= 0 {
		return nil, fmt.Errorf("xmltree: mirrored identifier %s out of document order after %s", id, prev.id)
	}
	ord, err := d.mint()
	if err != nil {
		return nil, err
	}
	n := &Node{kind: kind, ord: ord, label: label, id: id.Clone(), idText: text, parent: parent}
	d.register(n)
	if kind == KindAttribute {
		parent.attrs = append(parent.attrs, n)
	} else {
		parent.children = append(parent.children, n)
	}
	d.version++
	return n, nil
}

// AppendChild creates a new node of the given kind as the last child of
// parent and returns it. Appending a second element under the document node
// is rejected.
func (d *Document) AppendChild(parent *Node, kind Kind, label string) (*Node, error) {
	if err := d.checkOwned(parent); err != nil {
		return nil, err
	}
	if parent.kind == KindDocument && kind == KindElement && !d.fragment && d.RootElement() != nil {
		return nil, ErrSecondRoot
	}
	if kind == KindAttribute {
		return d.SetAttribute(parent, label, "")
	}
	lo := parent.LastChild()
	if lo == nil && len(parent.attrs) > 0 {
		// Attribute identifiers share the sibling key space and must stay
		// below all child identifiers (attributes precede children in
		// document order).
		lo = parent.attrs[len(parent.attrs)-1]
	}
	n, err := d.newChildNode(parent, kind, label, lo, nil)
	if err != nil {
		return nil, err
	}
	parent.children = append(parent.children, n)
	d.version++
	return n, nil
}

// InsertBefore creates a new node as the immediately preceding sibling of
// ref and returns it.
func (d *Document) InsertBefore(ref *Node, kind Kind, label string) (*Node, error) {
	return d.insertBeside(ref, kind, label, true)
}

// InsertAfter creates a new node as the immediately following sibling of ref
// and returns it.
func (d *Document) InsertAfter(ref *Node, kind Kind, label string) (*Node, error) {
	return d.insertBeside(ref, kind, label, false)
}

func (d *Document) insertBeside(ref *Node, kind Kind, label string, before bool) (*Node, error) {
	if err := d.checkOwned(ref); err != nil {
		return nil, err
	}
	if ref.kind == KindDocument {
		return nil, ErrDocumentNode
	}
	if ref.kind == KindAttribute || kind == KindAttribute {
		return nil, ErrAttributeTarget
	}
	parent := ref.parent
	if parent.kind == KindDocument && kind == KindElement && !d.fragment {
		return nil, ErrSecondRoot
	}
	i := parent.ChildIndex(ref)
	var lo, hi *Node
	pos := i
	if before {
		hi = ref
		if i > 0 {
			lo = parent.children[i-1]
		} else if len(parent.attrs) > 0 {
			lo = parent.attrs[len(parent.attrs)-1]
		}
	} else {
		lo = ref
		pos = i + 1
		if i < len(parent.children)-1 {
			hi = parent.children[i+1]
		}
	}
	n, err := d.newChildNode(parent, kind, label, lo, hi)
	if err != nil {
		return nil, err
	}
	parent.children = append(parent.children, nil)
	copy(parent.children[pos+1:], parent.children[pos:])
	parent.children[pos] = n
	d.version++
	return n, nil
}

// SetAttribute sets (or replaces the value of) an attribute on an element.
// The attribute is modeled as an Attribute node with one Text child holding
// the value. The attribute node's identifier is allocated before the
// element's first non-attribute child so that document order puts
// attributes first, as XPath requires.
func (d *Document) SetAttribute(elem *Node, name, value string) (*Node, error) {
	if err := d.checkOwned(elem); err != nil {
		return nil, err
	}
	if elem.kind != KindElement {
		return nil, fmt.Errorf("xmltree: SetAttribute on %s node: %w", elem.kind, ErrAttributeTarget)
	}
	if a := elem.Attr(name); a != nil {
		// Replace the value text child.
		if txt := a.FirstChild(); txt != nil {
			if txt.label != value {
				d.relabel(txt, value)
			}
			return a, nil
		}
		txt, err := d.newChildNode(a, KindText, value, nil, nil)
		if err != nil {
			return nil, err
		}
		a.children = append(a.children, txt)
		d.version++
		return a, nil
	}
	var lo, hi *Node
	if len(elem.attrs) > 0 {
		lo = elem.attrs[len(elem.attrs)-1]
	}
	hi = elem.FirstChild()
	a, err := d.newChildNode(elem, KindAttribute, name, lo, hi)
	if err != nil {
		return nil, err
	}
	elem.attrs = append(elem.attrs, a)
	txt, err := d.newChildNode(a, KindText, value, nil, nil)
	if err != nil {
		return nil, err
	}
	a.children = append(a.children, txt)
	d.version++
	return a, nil
}

// Rename changes the label of a node (xupdate:rename for elements and
// attributes; for text nodes it replaces the content, which is how
// xupdate:update is expressed on a text child). An element or attribute
// label must be an XML name (see CheckLabel), or the serialized document
// would carry whatever markup the label spells.
func (d *Document) Rename(n *Node, label string) error {
	if err := d.checkOwned(n); err != nil {
		return err
	}
	if n.kind == KindDocument {
		return ErrDocumentNode
	}
	if err := CheckLabel(n.kind, label); err != nil {
		return err
	}
	if n.label != label {
		d.relabel(n, label)
	}
	return nil
}

// relabel changes n's label, keeping the name index in step: an element
// under an attribute can be its first child, so SetAttribute's value
// replacement may relabel an element too.
func (d *Document) relabel(n *Node, label string) {
	if n.kind == KindElement {
		if set := d.names[n.label]; set != nil {
			delete(set, n)
			if len(set) == 0 {
				delete(d.names, n.label)
			}
		}
		set := d.names[label]
		if set == nil {
			set = make(map[*Node]struct{})
			d.names[label] = set
		}
		set[n] = struct{}{}
	}
	n.label = label
	d.version++
}

// Remove deletes node n and its entire subtree from the document
// (xupdate:remove semantics: deleting a node deletes the subtree of which it
// is the root). Removing the document node is rejected.
func (d *Document) Remove(n *Node) error {
	if err := d.checkOwned(n); err != nil {
		return err
	}
	if n.kind == KindDocument {
		return ErrDocumentNode
	}
	parent := n.parent
	if n.kind == KindAttribute {
		for i, a := range parent.attrs {
			if a == n {
				parent.attrs = append(parent.attrs[:i], parent.attrs[i+1:]...)
				break
			}
		}
	} else {
		i := parent.ChildIndex(n)
		parent.children = append(parent.children[:i], parent.children[i+1:]...)
	}
	n.Walk(func(m *Node) bool {
		d.unregister(m)
		return true
	})
	n.parent = nil
	d.version++
	return nil
}

func (d *Document) checkOwned(n *Node) error {
	if d.frozen {
		return ErrFrozen
	}
	if n == nil || n.doc != d {
		return ErrNotInDocument
	}
	return nil
}

// Freeze marks the document immutable: every subsequent mutation returns
// ErrFrozen. The core package freezes a document when it is published as a
// copy-on-write generation root, and CopyFiltered freezes the copies it
// hands out; lock-free readers may then traverse it without any
// synchronization beyond the atomic generation load. Freezing is one-way —
// obtain a mutable tree with Clone, which always returns an unfrozen copy.
func (d *Document) Freeze() { d.frozen = true }

// Frozen reports whether the document has been frozen by Freeze.
func (d *Document) Frozen() bool { return d.frozen }

// --- fragments and grafting -------------------------------------------------

// GraftMode says where a fragment is attached relative to a reference node.
type GraftMode int

// Graft positions, matching the three creating XUpdate operations (§3.4.2).
const (
	GraftAppend GraftMode = iota // last child of ref
	GraftBefore                  // immediately preceding sibling of ref
	GraftAfter                   // immediately following sibling of ref
)

// String returns the XUpdate operation name for the mode.
func (m GraftMode) String() string {
	switch m {
	case GraftAppend:
		return "append"
	case GraftBefore:
		return "insert-before"
	case GraftAfter:
		return "insert-after"
	default:
		return fmt.Sprintf("graftmode(%d)", int(m))
	}
}

// Graft deep-copies the subtree rooted at the fragment node src (typically
// from another Document used as a construction buffer) into this document,
// positioned relative to ref according to mode. It returns the new root node
// of the copied subtree. Fresh identifiers and ordinals are allocated for
// every copied node (the create_number predicate of axiom 7).
func (d *Document) Graft(ref *Node, mode GraftMode, src *Node) (*Node, error) {
	if err := d.checkOwned(ref); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("xmltree: nil fragment")
	}
	var top *Node
	var err error
	switch mode {
	case GraftAppend:
		top, err = d.AppendChild(ref, src.kind, src.label)
	case GraftBefore:
		top, err = d.InsertBefore(ref, src.kind, src.label)
	case GraftAfter:
		top, err = d.InsertAfter(ref, src.kind, src.label)
	default:
		return nil, fmt.Errorf("xmltree: unknown graft mode %d", int(mode))
	}
	if err != nil {
		return nil, err
	}
	if err := d.copyInto(top, src); err != nil {
		return nil, err
	}
	return top, nil
}

// copyInto deep-copies src's attributes and children under dst.
func (d *Document) copyInto(dst, src *Node) error {
	for _, a := range src.attrs {
		if _, err := d.SetAttribute(dst, a.label, a.StringValue()); err != nil {
			return err
		}
	}
	for _, c := range src.children {
		nc, err := d.AppendChild(dst, c.kind, c.label)
		if err != nil {
			return err
		}
		if err := d.copyInto(nc, c); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the document. The copy preserves node
// identifiers, so labels in the clone identify the same logical nodes; this
// is what view materialization relies on to map view nodes back to source
// nodes. The copy is never frozen, regardless of the receiver: Clone is the
// sanctioned way to obtain a mutable tree from a published generation root.
//
// Cloning copies memory rather than rebuilding per-node state: nodes come
// from one presized arena, every child and attribute list is carved from
// one shared backing array (see the package doc for the full-slice rule),
// identifiers and their cached text are shared with the source (both are
// immutable), every node keeps its ordinal, and the label and name
// indexes are presized from the source's. The allocation count therefore grows with the number of
// distinct element names, not with the number of nodes. Cloning is the
// dominant cost of a group commit and of a view snapshot.
func (d *Document) Clone() *Document {
	n := len(d.index)
	c := &Document{
		scheme:   d.scheme,
		index:    make(map[string]*Node, n),
		names:    make(map[string]map[*Node]struct{}, len(d.names)),
		version:  d.version,
		nextOrd:  d.nextOrd,
		fragment: d.fragment,
	}
	for name, set := range d.names {
		c.names[name] = make(map[*Node]struct{}, len(set))
	}
	cl := cloner{doc: c, arena: make([]Node, 1, n), links: make([]*Node, n-1)}
	c.root = &cl.arena[0]
	*c.root = Node{kind: KindDocument, label: "/", id: labeling.DocumentLabel, idText: "/", doc: c}
	c.index["/"] = c.root
	cl.under(c.root, d.root)
	return c
}

// cloner carries Clone's allocation state: the node arena and the
// not-yet-carved rest of the shared child/attribute backing array.
type cloner struct {
	doc   *Document
	arena []Node
	links []*Node
}

// under copies src's attributes and children below dst.
func (cl *cloner) under(dst, src *Node) {
	if len(src.attrs) > 0 {
		dst.attrs = cl.carve(len(src.attrs))
		for _, a := range src.attrs {
			dst.attrs = append(dst.attrs, cl.copyNode(dst, a))
		}
	}
	if len(src.children) > 0 {
		dst.children = cl.carve(len(src.children))
		for _, k := range src.children {
			dst.children = append(dst.children, cl.copyNode(dst, k))
		}
	}
}

// copyNode copies src (and, recursively, its subtree) under parent.
func (cl *cloner) copyNode(parent, src *Node) *Node {
	n := cl.node()
	*n = Node{kind: src.kind, ord: src.ord, label: src.label, id: src.id, idText: src.idText, parent: parent}
	cl.doc.register(n)
	cl.under(n, src)
	return n
}

// carve hands out an empty list of capacity k from the shared backing
// array. The full slice expression caps it at k, so growing it later
// reallocates rather than overwriting the next carved list.
func (cl *cloner) carve(k int) []*Node {
	if k > len(cl.links) {
		// Only reachable if the index undercounts the tree; stay correct.
		cl.links = make([]*Node, k)
	}
	s := cl.links[0:0:k]
	cl.links = cl.links[k:]
	return s
}

// node hands out the next node from the arena, starting a fresh block when
// the presized capacity is exhausted (again only if the index undercounts).
// Nodes already handed out are never moved — append to a full arena would
// reallocate, so a new block is started instead.
func (cl *cloner) node() *Node {
	if len(cl.arena) == cap(cl.arena) {
		cl.arena = make([]Node, 0, cap(cl.arena)/2+8)
	}
	cl.arena = append(cl.arena, Node{})
	return &cl.arena[len(cl.arena)-1]
}

// Equal reports whether two documents are structurally identical: same
// shapes, kinds, labels and identifiers.
func Equal(a, b *Document) bool { return nodeEqual(a.root, b.root) }

func nodeEqual(a, b *Node) bool {
	if a.kind != b.kind || a.label != b.label || !a.id.Equal(b.id) {
		return false
	}
	if len(a.attrs) != len(b.attrs) || len(a.children) != len(b.children) {
		return false
	}
	for i := range a.attrs {
		if !nodeEqual(a.attrs[i], b.attrs[i]) {
			return false
		}
	}
	for i := range a.children {
		if !nodeEqual(a.children[i], b.children[i]) {
			return false
		}
	}
	return true
}
