package xmltree

import (
	"errors"
	"testing"
	"unsafe"
)

// TestNodeOrdinals pins the ordinal invariant of the package doc: parsing
// numbers nodes in document order, Clone keeps every ordinal and the
// counter, a node created after a removal never takes the removed node's
// ordinal even when it takes its identifier, grafted and mirrored nodes
// take fresh ordinals, and the ordinal packs beside the kind so a Node
// stays at 128 bytes.
func TestNodeOrdinals(t *testing.T) {
	d := MustParse(cloneSrcXML)
	nodes := d.Nodes()
	for i, n := range nodes {
		if n.Ord() != uint32(i) {
			t.Fatalf("node %d in document order (%s) has ordinal %d", i, n.IDString(), n.Ord())
		}
	}
	if d.OrdLimit() != uint32(len(nodes)) {
		t.Fatalf("OrdLimit %d, %d nodes", d.OrdLimit(), len(nodes))
	}

	c := d.Clone()
	if c.OrdLimit() != d.OrdLimit() {
		t.Fatalf("clone OrdLimit %d, source %d", c.OrdLimit(), d.OrdLimit())
	}
	for i, n := range c.Nodes() {
		if n.Ord() != nodes[i].Ord() || n.IDString() != nodes[i].IDString() {
			t.Fatalf("clone node %s has ordinal %d, source %d", n.IDString(), n.Ord(), nodes[i].Ord())
		}
	}

	// Remove b's last child and append a new one in its place: the
	// scheme re-issues the identifier, the counter does not.
	b := c.RootElement().Children()[1]
	gone := b.LastChild()
	goneID, goneOrd := gone.IDString(), gone.Ord()
	if err := c.Remove(gone); err != nil {
		t.Fatal(err)
	}
	limit := c.OrdLimit()
	fresh, err := c.AppendChild(b, KindElement, "b3")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.IDString() != goneID {
		t.Fatalf("identifier %s was not re-issued (got %s); the check needs a re-issue", goneID, fresh.IDString())
	}
	if fresh.Ord() == goneOrd || fresh.Ord() != limit || c.OrdLimit() != limit+1 {
		t.Fatalf("re-inserted node has ordinal %d (removed %d, limit was %d, now %d)", fresh.Ord(), goneOrd, limit, c.OrdLimit())
	}
	if d.OrdLimit() != limit || d.NodeByID(gone.IDString()).Ord() != goneOrd {
		t.Fatal("mutating the clone moved the source's ordinals")
	}

	frag := MustParseFragment(cloneFragXML).Root().FirstChild()
	limit = c.OrdLimit()
	top, err := c.Graft(c.RootElement(), GraftAppend, frag)
	if err != nil {
		t.Fatal(err)
	}
	grafted := top.Subtree()
	for i, n := range grafted {
		if n.Ord() != limit+uint32(i) {
			t.Fatalf("grafted node %d (%s) has ordinal %d, want %d", i, n.IDString(), n.Ord(), limit+uint32(i))
		}
	}
	checkInvariants(t, c)

	// A mirrored view is its own lineage: identifiers from the source,
	// ordinals from the view's counter.
	v := New(nil)
	m, err := v.MirrorChild(v.Root(), KindElement, "r", c.RootElement().ID())
	if err != nil {
		t.Fatal(err)
	}
	if m.Ord() != 1 || v.OrdLimit() != 2 {
		t.Fatalf("mirrored node has ordinal %d, view limit %d", m.Ord(), v.OrdLimit())
	}

	if size := unsafe.Sizeof(Node{}); size != 128 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 128: place ord beside kind", size)
	}
}

// TestRenameChecksNames: element and attribute labels must be XML names,
// text labels are free, and a refused rename leaves the document as it
// was.
func TestRenameChecksNames(t *testing.T) {
	d := MustParse(`<r a="1"><e>t</e></r>`)
	e := d.RootElement().FirstChild()
	a := d.RootElement().Attributes()[0]
	ver := d.Version()
	for _, bad := range []string{"", `x a="1"><injected/`, "1x", "a b", "x>", "-x", "\xff"} {
		for _, n := range []*Node{e, a} {
			if err := d.Rename(n, bad); !errors.Is(err, ErrInvalidName) {
				t.Errorf("Rename(%s, %q) = %v, want ErrInvalidName", n.Kind(), bad, err)
			}
		}
	}
	if d.Version() != ver || d.XML() != MustParse(`<r a="1"><e>t</e></r>`).XML() {
		t.Fatalf("refused renames changed the document:\n%s", d.XML())
	}
	for _, good := range []string{"x", "_x", "x-1.y", "a:b", "é", "x·y"} {
		if err := d.Rename(e, good); err != nil {
			t.Errorf("Rename(element, %q) = %v", good, err)
		}
	}
	if err := d.Rename(e.FirstChild(), `free <text> & "quotes"`); err != nil {
		t.Errorf("text labels are free: %v", err)
	}
}
