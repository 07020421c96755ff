package xmltree

import (
	"math/rand"
	"strings"
	"testing"

	"securexml/internal/labeling"
)

const medicalXML = `<patients>
  <franck>
    <service>otolaryngology</service>
    <diagnosis>tonsillitis</diagnosis>
  </franck>
  <robert>
    <service>pneumology</service>
    <diagnosis>pneumonia</diagnosis>
  </robert>
</patients>`

func TestParseBasic(t *testing.T) {
	d := MustParse(medicalXML)
	root := d.RootElement()
	if root == nil || root.Label() != "patients" {
		t.Fatalf("root element = %v, want patients", root)
	}
	if got := len(root.Children()); got != 2 {
		t.Fatalf("patients has %d children, want 2", got)
	}
	franck := root.Children()[0]
	if franck.Label() != "franck" {
		t.Fatalf("first child = %q, want franck", franck.Label())
	}
	if got := franck.StringValue(); got != "otolaryngologytonsillitis" {
		t.Errorf("franck string-value = %q", got)
	}
	diag := franck.Children()[1]
	if diag.Label() != "diagnosis" || diag.StringValue() != "tonsillitis" {
		t.Errorf("diagnosis = %q/%q", diag.Label(), diag.StringValue())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                    // no root element
		"<a><b></a>",          // mismatched tags
		"<a></a><b></b>",      // two roots in non-fragment mode
		"just text, no roots", // no element at all
	}
	for _, src := range cases {
		if _, err := ParseString(src, ParseOptions{}); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestParseFragmentAllowsMultipleRoots(t *testing.T) {
	f, err := ParseString("<a/><b/>", ParseOptions{Fragment: true})
	if err != nil {
		t.Fatalf("fragment parse: %v", err)
	}
	if got := len(f.Root().Children()); got != 2 {
		t.Errorf("fragment has %d top nodes, want 2", got)
	}
}

func TestParseAttributes(t *testing.T) {
	d := MustParse(`<a x="1" y="two &amp; three"><b z="3"/></a>`)
	a := d.RootElement()
	if got, _ := a.AttrValue("x"); got != "1" {
		t.Errorf("@x = %q, want 1", got)
	}
	if got, _ := a.AttrValue("y"); got != "two & three" {
		t.Errorf("@y = %q", got)
	}
	if _, ok := a.AttrValue("missing"); ok {
		t.Error("missing attribute reported present")
	}
	b := a.Children()[0]
	if got, _ := b.AttrValue("z"); got != "3" {
		t.Errorf("b/@z = %q, want 3", got)
	}
	// Attribute nodes precede children in document order.
	x := a.Attr("x")
	if CompareDocOrder(x, b) >= 0 {
		t.Error("attribute does not precede element children in document order")
	}
}

func TestParseKeepsWhitespaceWhenAsked(t *testing.T) {
	src := "<a> <b/> </a>"
	d1, err := ParseString(src, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d1.RootElement().Children()); got != 1 {
		t.Errorf("default parse kept %d children, want 1", got)
	}
	d2, err := ParseString(src, ParseOptions{KeepWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d2.RootElement().Children()); got != 3 {
		t.Errorf("KeepWhitespace parse kept %d children, want 3", got)
	}
}

func TestParseComments(t *testing.T) {
	src := "<a><!-- note --><b/></a>"
	d, err := ParseString(src, ParseOptions{KeepComments: true})
	if err != nil {
		t.Fatal(err)
	}
	kids := d.RootElement().Children()
	if len(kids) != 2 || kids[0].Kind() != KindComment {
		t.Fatalf("comment not kept: %v", kids)
	}
	d2, err := ParseString(src, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.RootElement().Children()) != 1 {
		t.Error("comment kept by default")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	d := MustParse(medicalXML)
	out := d.XML()
	d2, err := ParseString(out, ParseOptions{})
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	// Structures must match (identifiers may differ between the two parses).
	if !sameShape(d.Root(), d2.Root()) {
		t.Errorf("round trip changed the tree:\n%s\nvs\n%s", d.Sketch(), d2.Sketch())
	}
}

func TestSerializeEscaping(t *testing.T) {
	d := New(nil)
	a, err := d.AppendChild(d.Root(), KindElement, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AppendChild(a, KindText, `<&>"special"`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetAttribute(a, "q", `a"b<c`); err != nil {
		t.Fatal(err)
	}
	out := d.CompactXML()
	d2, err := ParseString(out, ParseOptions{})
	if err != nil {
		t.Fatalf("reparse of %q: %v", out, err)
	}
	if got := d2.RootElement().StringValue(); got != `<&>"special"` {
		t.Errorf("text survived as %q", got)
	}
	if got, _ := d2.RootElement().AttrValue("q"); got != `a"b<c` {
		t.Errorf("attribute survived as %q", got)
	}
}

func sameShape(a, b *Node) bool {
	if a.Kind() != b.Kind() || a.Label() != b.Label() ||
		len(a.Children()) != len(b.Children()) || len(a.Attributes()) != len(b.Attributes()) {
		return false
	}
	for i := range a.Attributes() {
		if !sameShape(a.Attributes()[i], b.Attributes()[i]) {
			return false
		}
	}
	for i := range a.Children() {
		if !sameShape(a.Children()[i], b.Children()[i]) {
			return false
		}
	}
	return true
}

func TestAppendChildRejectsSecondRoot(t *testing.T) {
	d := MustParse("<a/>")
	if _, err := d.AppendChild(d.Root(), KindElement, "b"); err != ErrSecondRoot {
		t.Errorf("second root: got %v, want ErrSecondRoot", err)
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	d := MustParse("<a><m/></a>")
	a := d.RootElement()
	m := a.Children()[0]
	x, err := d.InsertBefore(m, KindElement, "x")
	if err != nil {
		t.Fatal(err)
	}
	z, err := d.InsertAfter(m, KindElement, "z")
	if err != nil {
		t.Fatal(err)
	}
	y, err := d.InsertAfter(x, KindElement, "y")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "y", "m", "z"}
	for i, c := range a.Children() {
		if c.Label() != want[i] {
			t.Fatalf("children order %v, want %v", labels(a.Children()), want)
		}
	}
	// Sibling order must also be derivable from identifiers alone.
	for _, pair := range [][2]*Node{{x, y}, {y, m}, {m, z}} {
		if CompareDocOrder(pair[0], pair[1]) >= 0 {
			t.Errorf("identifier order of %s and %s contradicts sibling order",
				pair[0].Label(), pair[1].Label())
		}
	}
	if !labeling.Holds(labeling.RelFollowingSibling, z.ID(), x.ID()) {
		t.Error("z not derived as following sibling of x")
	}
}

func labels(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Label()
	}
	return out
}

func TestInsertBesideErrors(t *testing.T) {
	d := MustParse("<a/>")
	if _, err := d.InsertBefore(d.Root(), KindElement, "x"); err != ErrDocumentNode {
		t.Errorf("insert before document node: %v", err)
	}
	if _, err := d.InsertAfter(d.RootElement(), KindElement, "x"); err != ErrSecondRoot {
		t.Errorf("insert sibling of root element: %v", err)
	}
	other := MustParse("<b/>")
	if _, err := d.InsertAfter(other.RootElement(), KindElement, "x"); err != ErrNotInDocument {
		t.Errorf("foreign node: %v", err)
	}
}

func TestIdentifiersPersistAcrossUpdates(t *testing.T) {
	d := MustParse(medicalXML)
	robert := d.RootElement().Children()[1]
	robertID := robert.ID().String()
	franck := d.RootElement().Children()[0]

	// Delete franck, insert new patients, rename things: robert keeps his id.
	if err := d.Remove(franck); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertBefore(robert, KindElement, "albert"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InsertAfter(robert, KindElement, "zoe"); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename(d.RootElement(), "people"); err != nil {
		t.Fatal(err)
	}
	if got := robert.ID().String(); got != robertID {
		t.Errorf("robert's identifier changed across updates: %q -> %q", robertID, got)
	}
	if d.NodeByID(robert.ID()) != robert {
		t.Error("index lookup by persistent identifier broken after updates")
	}
}

func TestRemoveSubtree(t *testing.T) {
	d := MustParse(medicalXML)
	before := d.Len()
	franck := d.RootElement().Children()[0]
	sub := franck.Subtree()
	if err := d.Remove(franck); err != nil {
		t.Fatal(err)
	}
	if got := d.Len(); got != before-len(sub) {
		t.Errorf("Len() = %d after removing %d nodes from %d", got, len(sub), before)
	}
	for _, n := range sub {
		if d.NodeByID(n.ID()) != nil {
			t.Errorf("removed node %s still indexed", n.ID())
		}
	}
	if err := d.Remove(d.Root()); err != ErrDocumentNode {
		t.Errorf("removing document node: %v", err)
	}
}

func TestRemoveAttribute(t *testing.T) {
	d := MustParse(`<a x="1" y="2"/>`)
	a := d.RootElement()
	x := a.Attr("x")
	if err := d.Remove(x); err != nil {
		t.Fatal(err)
	}
	if a.Attr("x") != nil {
		t.Error("attribute x still present after Remove")
	}
	if a.Attr("y") == nil {
		t.Error("attribute y lost")
	}
}

func TestSetAttributeReplacesValue(t *testing.T) {
	d := MustParse(`<a x="1"/>`)
	a := d.RootElement()
	idBefore := a.Attr("x").ID().String()
	v := d.Version()
	if _, err := d.SetAttribute(a, "x", "2"); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.AttrValue("x"); got != "2" {
		t.Errorf("@x = %q, want 2", got)
	}
	if a.Attr("x").ID().String() != idBefore {
		t.Error("attribute identifier changed on value update")
	}
	if d.Version() == v {
		t.Error("version not bumped on attribute update")
	}
	// Idempotent set does not bump the version.
	v = d.Version()
	if _, err := d.SetAttribute(a, "x", "2"); err != nil {
		t.Fatal(err)
	}
	if d.Version() != v {
		t.Error("version bumped on no-op attribute set")
	}
	if _, err := d.SetAttribute(a.Attr("x"), "y", "3"); err == nil {
		t.Error("SetAttribute on attribute node should fail")
	}
}

func TestRenameErrors(t *testing.T) {
	d := MustParse("<a/>")
	if err := d.Rename(d.Root(), "x"); err != ErrDocumentNode {
		t.Errorf("rename document node: %v", err)
	}
	other := MustParse("<b/>")
	if err := d.Rename(other.RootElement(), "x"); err != ErrNotInDocument {
		t.Errorf("rename foreign node: %v", err)
	}
}

func TestGraftAppend(t *testing.T) {
	d := MustParse(medicalXML)
	frag := MustParseFragment(`<albert><service>cardiology</service><diagnosis/></albert>`)
	top, err := d.Graft(d.RootElement(), GraftAppend, frag.Root().Children()[0])
	if err != nil {
		t.Fatal(err)
	}
	kids := d.RootElement().Children()
	if kids[len(kids)-1] != top {
		t.Error("grafted tree is not the last child")
	}
	if top.Label() != "albert" || len(top.Children()) != 2 {
		t.Errorf("grafted tree malformed: %s", top.Label())
	}
	// Fresh identifiers were allocated in this document.
	top.Walk(func(n *Node) bool {
		if d.NodeByID(n.ID()) != n {
			t.Errorf("grafted node %s not indexed", n.ID())
		}
		return true
	})
}

func TestGraftBeforeAfterPositions(t *testing.T) {
	d := MustParse("<a><m/></a>")
	m := d.RootElement().Children()[0]
	fb := MustParseFragment("<x/>")
	if _, err := d.Graft(m, GraftBefore, fb.Root().Children()[0]); err != nil {
		t.Fatal(err)
	}
	fa := MustParseFragment("<z/>")
	if _, err := d.Graft(m, GraftAfter, fa.Root().Children()[0]); err != nil {
		t.Fatal(err)
	}
	got := labels(d.RootElement().Children())
	want := []string{"x", "m", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("children = %v, want %v", got, want)
		}
	}
	if _, err := d.Graft(m, GraftMode(99), fa.Root().Children()[0]); err == nil {
		t.Error("unknown graft mode accepted")
	}
	if _, err := d.Graft(m, GraftAppend, nil); err == nil {
		t.Error("nil fragment accepted")
	}
}

func TestCloneEqualAndIndependence(t *testing.T) {
	d := MustParse(medicalXML)
	c := d.Clone()
	if !Equal(d, c) {
		t.Fatal("clone not Equal to original")
	}
	// Identifiers are preserved so clones can map back to source nodes.
	for _, n := range d.Nodes() {
		cn := c.NodeByID(n.ID())
		if cn == nil || cn.Label() != n.Label() || cn.Kind() != n.Kind() {
			t.Fatalf("clone lost node %s", n.ID())
		}
	}
	// Mutating the clone leaves the original alone.
	if err := c.Rename(c.RootElement(), "changed"); err != nil {
		t.Fatal(err)
	}
	if d.RootElement().Label() != "patients" {
		t.Error("mutating clone affected original")
	}
	if Equal(d, c) {
		t.Error("Equal ignores label change")
	}
}

func TestNodesInDocumentOrder(t *testing.T) {
	d := MustParse(medicalXML)
	ns := d.Nodes()
	for i := 1; i < len(ns); i++ {
		if CompareDocOrder(ns[i-1], ns[i]) >= 0 {
			t.Fatalf("Nodes() not in document order at %d: %s !< %s",
				i, ns[i-1].ID(), ns[i].ID())
		}
	}
	if d.Len() != len(ns) {
		t.Errorf("Len() = %d, Nodes() = %d", d.Len(), len(ns))
	}
}

func TestSortDocOrderDedup(t *testing.T) {
	d := MustParse(medicalXML)
	ns := d.Nodes()
	shuffled := append([]*Node{}, ns...)
	shuffled = append(shuffled, ns[0], ns[3]) // duplicates
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sorted := SortDocOrder(shuffled)
	if len(sorted) != len(ns) {
		t.Fatalf("SortDocOrder kept %d nodes, want %d", len(sorted), len(ns))
	}
	for i := range ns {
		if sorted[i] != ns[i] {
			t.Fatalf("SortDocOrder order mismatch at %d", i)
		}
	}
}

// TestGeometryAgreesWithPointers is the §3.1 soundness property: relations
// derived from identifiers alone must coincide with the pointer structure,
// on a randomly built and randomly mutated document.
func TestGeometryAgreesWithPointers(t *testing.T) {
	for _, schemeName := range []string{"fracpath", "lsdx"} {
		scheme, err := labeling.ByName(schemeName)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		d := New(scheme)
		root, err := d.AppendChild(d.Root(), KindElement, "root")
		if err != nil {
			t.Fatal(err)
		}
		elems := []*Node{root}
		for i := 0; i < 300; i++ {
			target := elems[rng.Intn(len(elems))]
			var n *Node
			switch rng.Intn(4) {
			case 0, 1:
				n, err = d.AppendChild(target, KindElement, "e")
			case 2:
				if target == root {
					continue
				}
				n, err = d.InsertBefore(target, KindElement, "e")
			default:
				if target == root {
					continue
				}
				n, err = d.InsertAfter(target, KindElement, "e")
			}
			if err != nil {
				t.Fatal(err)
			}
			elems = append(elems, n)
		}
		// Random removals.
		for i := 0; i < 30; i++ {
			n := elems[1+rng.Intn(len(elems)-1)]
			if n.Document() != d {
				continue // already removed with an ancestor
			}
			if err := d.Remove(n); err != nil {
				t.Fatal(err)
			}
		}
		checkGeometry(t, schemeName, d)
	}
}

func checkGeometry(t *testing.T, scheme string, d *Document) {
	t.Helper()
	ns := d.Nodes()
	if len(ns) > 120 {
		ns = ns[:120] // O(n²) check; cap the work
	}
	for _, a := range ns {
		for _, b := range ns {
			if gotChild := labeling.Holds(labeling.RelChild, a.ID(), b.ID()); gotChild != isPointerChild(a, b) {
				t.Fatalf("%s: child(%s, %s) from labels = %v, from pointers = %v",
					scheme, a.ID(), b.ID(), gotChild, isPointerChild(a, b))
			}
			if gotDesc := labeling.Holds(labeling.RelDescendant, a.ID(), b.ID()); gotDesc != isPointerDescendant(a, b) {
				t.Fatalf("%s: descendant(%s, %s) mismatch", scheme, a.ID(), b.ID())
			}
			if gotFS := labeling.Holds(labeling.RelFollowingSibling, a.ID(), b.ID()); gotFS != isPointerFollowingSibling(a, b) {
				t.Fatalf("%s: following-sibling(%s, %s) mismatch", scheme, a.ID(), b.ID())
			}
		}
	}
}

func isPointerChild(a, b *Node) bool { return a.Parent() == b }

func isPointerDescendant(a, b *Node) bool {
	for p := a.Parent(); p != nil; p = p.Parent() {
		if p == b {
			return true
		}
	}
	return false
}

func isPointerFollowingSibling(a, b *Node) bool {
	if a.Parent() == nil || a.Parent() != b.Parent() || a == b {
		return false
	}
	if a.Kind() == KindAttribute || b.Kind() == KindAttribute {
		return false
	}
	p := a.Parent()
	return p.ChildIndex(a) > p.ChildIndex(b)
}

func TestPathAndSketch(t *testing.T) {
	d := MustParse(`<patients><franck><diagnosis>tonsillitis</diagnosis></franck></patients>`)
	diag := d.RootElement().Children()[0].Children()[0]
	if got := diag.Path(); got != "/patients/franck/diagnosis" {
		t.Errorf("Path = %q", got)
	}
	txt := diag.Children()[0]
	if got := txt.Path(); got != "/patients/franck/diagnosis/text()" {
		t.Errorf("text path = %q", got)
	}
	if got := d.Root().Path(); got != "/" {
		t.Errorf("document path = %q", got)
	}
	sk := d.Sketch()
	for _, want := range []string{"patients", "franck", "diagnosis", "text()  tonsillitis", "document"} {
		if !strings.Contains(sk, want) {
			t.Errorf("Sketch missing %q:\n%s", want, sk)
		}
	}
}

func TestSiblingAndChildNavigation(t *testing.T) {
	d := MustParse("<a><x/><y/><z/></a>")
	a := d.RootElement()
	x, y, z := a.Children()[0], a.Children()[1], a.Children()[2]
	if x.PrecedingSibling() != nil || x.FollowingSibling() != y {
		t.Error("x sibling navigation wrong")
	}
	if y.PrecedingSibling() != x || y.FollowingSibling() != z {
		t.Error("y sibling navigation wrong")
	}
	if z.FollowingSibling() != nil {
		t.Error("z has a following sibling")
	}
	if a.FirstChild() != x || a.LastChild() != z {
		t.Error("first/last child wrong")
	}
	if a.ChildIndex(d.Root()) != -1 {
		t.Error("ChildIndex of non-child should be -1")
	}
}

func TestWalkPrune(t *testing.T) {
	d := MustParse(medicalXML)
	var visited []string
	d.Root().Walk(func(n *Node) bool {
		if n.Label() == "franck" {
			visited = append(visited, n.Label())
			return false // prune franck's subtree
		}
		if n.Kind() == KindElement {
			visited = append(visited, n.Label())
		}
		return true
	})
	for _, l := range visited {
		if l == "service" && visited[1] == "franck" && l != "robert" {
			// service under franck must not appear before robert
			break
		}
	}
	want := []string{"patients", "franck", "robert", "service", "diagnosis"}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindDocument: "document", KindElement: "element", KindText: "text",
		KindAttribute: "attribute", KindComment: "comment", Kind(42): "kind(42)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	for m, want := range map[GraftMode]string{
		GraftAppend: "append", GraftBefore: "insert-before",
		GraftAfter: "insert-after", GraftMode(9): "graftmode(9)",
	} {
		if m.String() != want {
			t.Errorf("GraftMode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}
