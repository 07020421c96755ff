package xmltree

import (
	"fmt"
	"maps"
	"testing"

	"securexml/internal/labeling"
)

// cloneSrcXML has several sibling lists of three, so Clone carves lists
// that sit next to each other in its shared backing array: r's children,
// then a's attributes, a's children, b's children, c's attributes, c's
// children.
const cloneSrcXML = `<r><a x="1" y="2"><a1/><a2>t</a2><a3/></a><b><b1/><b2/><b3/></b><c z="3"><c1/><c2/><c3/></c></r>`

const cloneFragXML = `<g k="v"><h/>t</g>`

// checkInvariants verifies the bookkeeping Clone and the mutators must
// keep: cached identifier text, the label index, the name index, parent
// and owner pointers, and ordinals unique and below OrdLimit.
func checkInvariants(t *testing.T, d *Document) {
	t.Helper()
	seen := 0
	elems := map[string]int{}
	ords := map[uint32]string{}
	d.root.Walk(func(n *Node) bool {
		seen++
		if n.ord >= d.OrdLimit() {
			t.Fatalf("node %s has ordinal %d, limit %d", n.idText, n.ord, d.OrdLimit())
		}
		if other, dup := ords[n.ord]; dup {
			t.Fatalf("nodes %s and %s share ordinal %d", other, n.idText, n.ord)
		}
		ords[n.ord] = n.idText
		if n.idText != n.id.String() {
			t.Fatalf("node %s caches text %q", n.id, n.idText)
		}
		if d.index[n.idText] != n {
			t.Fatalf("index[%s] does not point at its node", n.idText)
		}
		if n.doc != d {
			t.Fatalf("node %s belongs to another document", n.idText)
		}
		for _, k := range append(append([]*Node(nil), n.attrs...), n.children...) {
			if k.parent != n {
				t.Fatalf("node %s has a wrong parent pointer", k.idText)
			}
		}
		if n.kind == KindElement {
			elems[n.label]++
			if _, ok := d.names[n.label][n]; !ok {
				t.Fatalf("element %s missing from the name index", n.idText)
			}
		}
		return true
	})
	if seen != len(d.index) {
		t.Fatalf("index holds %d nodes, tree %d", len(d.index), seen)
	}
	if len(elems) != len(d.names) {
		t.Fatalf("name index holds %d names, tree %d", len(d.names), len(elems))
	}
	for name, k := range elems {
		if len(d.names[name]) != k {
			t.Fatalf("name index holds %d %q elements, tree %d", len(d.names[name]), name, k)
		}
	}
}

// siblingLists snapshots every node's child and attribute lists by
// identifier text.
func siblingLists(d *Document) map[string]string {
	out := map[string]string{}
	d.root.Walk(func(n *Node) bool {
		out[n.idText] = fmt.Sprint(idTexts(n.attrs), idTexts(n.children))
		return true
	})
	return out
}

func idTexts(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.idText
	}
	return out
}

// afterKey returns a sibling key greater than every key in list.
func afterKey(t *testing.T, d *Document, list []*Node) string {
	t.Helper()
	lo := ""
	if len(list) > 0 {
		lo, _ = list[len(list)-1].id.Key()
	}
	k, err := d.scheme.Between(lo, "")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// cloneMutators are every Document mutator, each applied to one target.
// The same mutator run on two equal documents must give equal documents:
// identifier allocation is a pure function of the tree.
var cloneMutators = []struct {
	name  string
	apply func(t *testing.T, d *Document, n *Node) error
}{
	{"AppendChild", func(_ *testing.T, d *Document, n *Node) error {
		_, err := d.AppendChild(n, KindElement, "new")
		return err
	}},
	{"InsertBefore", func(_ *testing.T, d *Document, n *Node) error {
		_, err := d.InsertBefore(n, KindElement, "new")
		return err
	}},
	{"InsertAfter", func(_ *testing.T, d *Document, n *Node) error {
		_, err := d.InsertAfter(n, KindText, "new")
		return err
	}},
	{"SetAttribute", func(_ *testing.T, d *Document, n *Node) error {
		if _, err := d.SetAttribute(n, "x", "changed"); err != nil {
			return err
		}
		_, err := d.SetAttribute(n, "fresh", "v")
		return err
	}},
	{"Rename", func(_ *testing.T, d *Document, n *Node) error {
		return d.Rename(n, "renamed")
	}},
	{"Remove", func(_ *testing.T, d *Document, n *Node) error {
		return d.Remove(n)
	}},
	{"MirrorChild", func(t *testing.T, d *Document, n *Node) error {
		_, err := d.MirrorChild(n, KindElement, "m", n.id.Child(afterKey(t, d, n.children)))
		return err
	}},
	{"GraftAppend", func(_ *testing.T, d *Document, n *Node) error {
		_, err := d.Graft(n, GraftAppend, MustParseFragment(cloneFragXML).Root().FirstChild())
		return err
	}},
	{"GraftBefore", func(_ *testing.T, d *Document, n *Node) error {
		_, err := d.Graft(n, GraftBefore, MustParseFragment(cloneFragXML).Root().FirstChild())
		return err
	}},
	{"GraftAfter", func(_ *testing.T, d *Document, n *Node) error {
		_, err := d.Graft(n, GraftAfter, MustParseFragment(cloneFragXML).Root().FirstChild())
		return err
	}},
}

// TestCloneCarvesFullSlices pins the property the independence tests rely
// on: every carved list's capacity ends at its length, so growing it must
// reallocate.
func TestCloneCarvesFullSlices(t *testing.T) {
	c := MustParse(cloneSrcXML).Clone()
	c.root.Walk(func(n *Node) bool {
		if cap(n.children) != len(n.children) || cap(n.attrs) != len(n.attrs) {
			t.Errorf("%s: children len %d cap %d, attrs len %d cap %d",
				n.Path(), len(n.children), cap(n.children), len(n.attrs), cap(n.attrs))
		}
		return true
	})
	checkInvariants(t, c)
}

// TestCloneStaysIndependent applies every mutator to the first, middle and
// last member of each adjacent sibling list of a clone. The source must
// not change, the clone must equal the same mutation on a freshly parsed
// copy, and every sibling list the mutation did not touch must be intact.
func TestCloneStaysIndependent(t *testing.T) {
	var targets []string
	for _, path := range [][]int{{0}, {0, 0}, {0, 1}, {0, 2}} {
		n := MustParse(cloneSrcXML).root
		for _, i := range path {
			n = n.children[i]
		}
		for _, k := range []*Node{n.children[0], n.children[1], n.children[2]} {
			targets = append(targets, k.idText)
		}
		for _, a := range n.attrs {
			targets = append(targets, a.idText)
		}
	}
	for _, m := range cloneMutators {
		for _, id := range targets {
			t.Run(m.name+id, func(t *testing.T) {
				src, pristine, fresh := MustParse(cloneSrcXML), MustParse(cloneSrcXML), MustParse(cloneSrcXML)
				c := src.Clone()
				before := siblingLists(c)
				target := c.index[id]
				touched := map[string]bool{id: true, target.parent.idText: true}
				errC := m.apply(t, c, target)
				errF := m.apply(t, fresh, fresh.index[id])
				if (errC == nil) != (errF == nil) {
					t.Fatalf("clone error %v, fresh error %v", errC, errF)
				}
				if !Equal(src, pristine) {
					t.Fatalf("mutating the clone changed the source:\n%s", src.Sketch())
				}
				if !Equal(c, fresh) {
					t.Fatalf("clone diverged from a fresh copy:\n%s\nwant:\n%s", c.Sketch(), fresh.Sketch())
				}
				checkInvariants(t, c)
				checkInvariants(t, src)
				after := siblingLists(c)
				for node, lists := range before {
					if now, ok := after[node]; ok && !touched[node] && now != lists {
						t.Errorf("untouched node %s: lists %s became %s", node, lists, now)
					}
				}
			})
		}
	}
}

// applyFuzzOps interprets data as mutator calls, three bytes each: the
// mutator, the target (an index into document order) and a label byte.
// It applies the call to every document in docs, which must start equal,
// and fails the test unless the documents agree on success.
func applyFuzzOps(t *testing.T, docs []*Document, op []byte) {
	t.Helper()
	var errs []error
	nodes := docs[0].Nodes()
	id := nodes[int(op[1])%len(nodes)].idText
	for _, d := range docs {
		n := d.index[id]
		var err error
		switch op[0] % 8 {
		case 0:
			_, err = d.AppendChild(n, Kind(1+int(op[2])%2), fmt.Sprintf("e%d", op[2]%4))
		case 1:
			_, err = d.InsertBefore(n, KindElement, fmt.Sprintf("e%d", op[2]%4))
		case 2:
			_, err = d.InsertAfter(n, KindText, fmt.Sprintf("t%d", op[2]))
		case 3:
			_, err = d.SetAttribute(n, fmt.Sprintf("a%d", op[2]%3), fmt.Sprintf("v%d", op[2]))
		case 4:
			err = d.Rename(n, fmt.Sprintf("e%d", op[2]%4))
		case 5:
			err = d.Remove(n)
		case 6:
			_, err = d.MirrorChild(n, KindElement, "m", n.id.Child(afterKey(t, d, n.children)))
		case 7:
			_, err = d.Graft(n, GraftMode(op[2]%3), MustParseFragment(cloneFragXML).Root().FirstChild())
		}
		errs = append(errs, err)
	}
	for _, err := range errs[1:] {
		if (err == nil) != (errs[0] == nil) {
			t.Fatalf("op %v: documents disagree: %v", op, errs)
		}
	}
}

// ordinals maps every node's ordinal to its identifier text.
func ordinals(d *Document) map[uint32]string {
	out := make(map[uint32]string, d.Len())
	d.root.Walk(func(n *Node) bool {
		out[n.ord] = n.idText
		return true
	})
	return out
}

// checkNoReuse fails unless every node of d with an ordinal below the
// earlier limit is a node that carried that ordinal before (same
// identifier), so a removed node's ordinal was never handed out again.
func checkNoReuse(t *testing.T, d *Document, before map[uint32]string, limit uint32) {
	t.Helper()
	if d.OrdLimit() < limit {
		t.Fatalf("OrdLimit fell from %d to %d", limit, d.OrdLimit())
	}
	for ord, id := range ordinals(d) {
		if ord < limit && before[ord] != id {
			t.Fatalf("ordinal %d reused: was %q, now %s", ord, before[ord], id)
		}
	}
}

// FuzzCloneMutate drives random mutator sequences against a chain of
// clones and a freshly parsed twin. A zero label byte re-clones the
// current document mid-sequence; every earlier generation must stay
// exactly as it was when it was cloned from, and the clone must carry
// the same ordinals and counter. After every op the ordinals are unique
// and no ordinal of the lineage is reused.
func FuzzCloneMutate(f *testing.F) {
	f.Add([]byte{0, 3, 1, 1, 5, 0, 5, 4, 1})
	f.Add([]byte{2, 7, 0, 3, 9, 2, 6, 1, 1, 7, 12, 0, 1, 1, 5})
	f.Add([]byte{5, 2, 3, 5, 2, 3, 0, 1, 1, 6, 1, 2, 3, 1, 0, 4, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			return
		}
		src := MustParse(cloneSrcXML)
		pristine := src.Sketch()
		c, fresh := src.Clone(), MustParse(cloneSrcXML)
		type gen struct {
			d      *Document
			sketch string
		}
		gens := []gen{{src, pristine}}
		for i := 0; i+3 <= len(data); i += 3 {
			op := data[i : i+3]
			if op[2] == 0 {
				gens = append(gens, gen{c, c.Sketch()})
				prev := c
				c = c.Clone()
				if c.OrdLimit() != prev.OrdLimit() || !maps.Equal(ordinals(c), ordinals(prev)) {
					t.Fatalf("clone changed the ordinals (limit %d, was %d)", c.OrdLimit(), prev.OrdLimit())
				}
			}
			before, limit := ordinals(c), c.OrdLimit()
			applyFuzzOps(t, []*Document{c, fresh}, op)
			checkInvariants(t, c)
			checkNoReuse(t, c, before, limit)
			if !Equal(c, fresh) {
				t.Fatalf("clone diverged after op %v:\n%s\nwant:\n%s", op, c.Sketch(), fresh.Sketch())
			}
		}
		for i, g := range gens {
			if g.d.Sketch() != g.sketch {
				t.Fatalf("generation %d changed after it was cloned:\n%s\nwas:\n%s", i, g.d.Sketch(), g.sketch)
			}
			checkInvariants(t, g.d)
		}
	})
}

// TestCloneOfMirroredView covers the document node's cached text and the
// mirror path's rendering: a view-style document built by MirrorChild
// clones with every identifier's text intact.
func TestCloneOfMirroredView(t *testing.T) {
	d := New(labeling.NewFracPath())
	if d.Root().IDString() != "/" {
		t.Fatalf("document node text %q", d.Root().IDString())
	}
	src := MustParse(cloneSrcXML)
	var mirror func(dst, s *Node)
	mirror = func(dst, s *Node) {
		for _, k := range append(append([]*Node(nil), s.attrs...), s.children...) {
			n, err := d.MirrorChild(dst, k.kind, k.label, k.id)
			if err != nil {
				t.Fatal(err)
			}
			mirror(n, k)
		}
	}
	mirror(d.root, src.root)
	checkInvariants(t, d)
	if !Equal(d, src) {
		t.Fatal("mirror differs from source")
	}
	c := d.Clone()
	checkInvariants(t, c)
	if !Equal(c, src) {
		t.Fatal("clone of mirror differs from source")
	}
}

// TestSetAttributeRelabelKeepsNameIndex: when an element has been inserted
// as an attribute's first child, replacing the attribute's value relabels
// that element, and the name index must follow it.
func TestSetAttributeRelabelKeepsNameIndex(t *testing.T) {
	d := MustParse(`<r x="1"/>`)
	r := d.RootElement()
	if _, err := d.InsertBefore(r.Attr("x").FirstChild(), KindElement, "e"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetAttribute(r, "x", "v"); err != nil {
		t.Fatal(err)
	}
	if got := len(d.ElementsByName("e")); got != 0 {
		t.Errorf("ElementsByName(e) = %d nodes after the relabel, want 0", got)
	}
	if got := len(d.ElementsByName("v")); got != 1 {
		t.Errorf("ElementsByName(v) = %d nodes, want 1", got)
	}
	checkInvariants(t, d)
}
