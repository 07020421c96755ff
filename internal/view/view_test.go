package view

import (
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

const medXML = `<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`

// hier builds a tiny hierarchy with one role and one user.
func hier(t *testing.T) *subject.Hierarchy {
	t.Helper()
	h := subject.NewHierarchy()
	if err := h.AddRole("r"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddUser("u", "r"); err != nil {
		t.Fatal(err)
	}
	return h
}

func materialize(t *testing.T, doc *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, user string) *View {
	t.Helper()
	pm, err := p.Evaluate(doc, h, user)
	if err != nil {
		t.Fatal(err)
	}
	return Materialize(doc, pm)
}

func TestEmptyPolicyYieldsEmptyView(t *testing.T) {
	d, _ := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	h := hier(t)
	v := materialize(t, d, h, policy.New(), "u")
	// Axiom 15: the document node is always in the view; nothing else is.
	if v.Doc.Len() != 1 {
		t.Errorf("view has %d nodes, want only the document node:\n%s", v.Doc.Len(), v.Doc.Sketch())
	}
	if v.Hidden != d.Len()-1 {
		t.Errorf("Hidden = %d, want %d", v.Hidden, d.Len()-1)
	}
	if v.User != "u" {
		t.Errorf("User = %q", v.User)
	}
}

func TestFullReadYieldsIdenticalView(t *testing.T) {
	d, _ := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	h := hier(t)
	p := policy.New()
	if err := p.Grant(h, policy.Read, "/descendant-or-self::node()", "r"); err != nil {
		t.Fatal(err)
	}
	v := materialize(t, d, h, p, "u")
	if !xmltree.Equal(v.Doc, d) {
		t.Errorf("full-read view differs from source:\n%s\nvs\n%s", v.Doc.Sketch(), d.Sketch())
	}
	if v.Restricted != 0 || v.Hidden != 0 {
		t.Errorf("Restricted=%d Hidden=%d", v.Restricted, v.Hidden)
	}
}

func TestHiddenSubtreeDisappearsEntirely(t *testing.T) {
	// Deny on franck hides franck's whole subtree even though the user holds
	// read on the nodes below (the parent-selected condition of axiom 16).
	d, _ := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	h := hier(t)
	p := policy.New()
	if err := p.Grant(h, policy.Read, "/descendant-or-self::node()", "r"); err != nil {
		t.Fatal(err)
	}
	if err := p.Revoke(h, policy.Read, "/patients/franck", "r"); err != nil {
		t.Fatal(err)
	}
	v := materialize(t, d, h, p, "u")
	if got, _ := xpath.Select(v.Doc, "//franck", nil); len(got) != 0 {
		t.Error("franck still visible")
	}
	if got, _ := xpath.Select(v.Doc, "//service", nil); len(got) != 1 {
		t.Errorf("franck's service leaked into the view (or robert's lost): %d", len(got))
	}
	// 5 hidden nodes: franck + service + text + diagnosis + text.
	if v.Hidden != 5 {
		t.Errorf("Hidden = %d, want 5", v.Hidden)
	}
}

func TestPositionShowsRestrictedSkeleton(t *testing.T) {
	d, _ := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	h := hier(t)
	p := policy.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Grant(h, policy.Read, "/descendant-or-self::node()", "r"))
	must(p.Revoke(h, policy.Read, "/patients/franck", "r"))
	must(p.Grant(h, policy.Position, "/patients/franck", "r"))
	v := materialize(t, d, h, p, "u")
	// franck appears as RESTRICTED, structure below is preserved.
	rs, _ := xpath.Select(v.Doc, "/patients/RESTRICTED", nil)
	if len(rs) != 1 {
		t.Fatalf("no RESTRICTED element where franck was:\n%s", v.Doc.Sketch())
	}
	if got, _ := xpath.Select(v.Doc, "/patients/RESTRICTED/service/text()", nil); len(got) != 1 {
		t.Error("subtree below RESTRICTED node lost")
	}
	if v.Restricted != 1 {
		t.Errorf("Restricted = %d, want 1", v.Restricted)
	}
	// The source node keeps its identity: same id in view and source.
	src, _ := xpath.Select(d, "/patients/franck", nil)
	if !v.Visible(src[0].ID().String()) {
		t.Error("Visible(franck) = false")
	}
	if !v.IsRestricted(src[0].ID().String()) {
		t.Error("IsRestricted(franck) = false")
	}
	robertID, _ := xpath.Select(d, "/patients/robert", nil)
	if v.IsRestricted(robertID[0].ID().String()) {
		t.Error("IsRestricted(robert) = true")
	}
	if v.Visible("not-an-id") || v.IsRestricted("not-an-id") {
		t.Error("malformed ids should be invisible")
	}
}

func TestReadBeatsPositionWhenBothHeld(t *testing.T) {
	// Axiom 17 applies only without the read privilege.
	d, _ := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	h := hier(t)
	p := policy.New()
	if err := p.Grant(h, policy.Position, "/patients", "r"); err != nil {
		t.Fatal(err)
	}
	if err := p.Grant(h, policy.Read, "/patients", "r"); err != nil {
		t.Fatal(err)
	}
	v := materialize(t, d, h, p, "u")
	if got, _ := xpath.Select(v.Doc, "/patients", nil); len(got) != 1 {
		t.Fatalf("patients not visible with its label:\n%s", v.Doc.Sketch())
	}
	if v.Restricted != 0 {
		t.Error("node restricted despite read privilege")
	}
}

func TestViewKeepsIdentifiers(t *testing.T) {
	d, _ := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	h := hier(t)
	p := policy.New()
	if err := p.Grant(h, policy.Read, "/descendant-or-self::node()", "r"); err != nil {
		t.Fatal(err)
	}
	v := materialize(t, d, h, p, "u")
	for _, n := range d.Nodes() {
		vn := v.Doc.NodeByID(n.IDString())
		if vn == nil {
			t.Fatalf("view lost node %s", n.ID())
		}
		if vn.Label() != n.Label() {
			t.Errorf("label of %s changed: %q -> %q", n.ID(), n.Label(), vn.Label())
		}
	}
	if v.SourceVersion != d.Version() {
		t.Error("SourceVersion mismatch")
	}
}

func TestViewWithAttributes(t *testing.T) {
	d, _ := xmltree.ParseString(`<r><e id="secret" pub="ok">text</e></r>`, xmltree.ParseOptions{})
	h := hier(t)
	p := policy.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Grant(h, policy.Read, "/descendant-or-self::node()", "r"))
	must(p.Grant(h, policy.Read, "//@*", "r"))
	must(p.Grant(h, policy.Read, "//@*/node()", "r"))
	must(p.Revoke(h, policy.Read, "//@id", "r"))
	v := materialize(t, d, h, p, "u")
	e, err := xpath.Select(v.Doc, "/r/e", nil)
	if err != nil || len(e) != 1 {
		t.Fatalf("element lost: %v", err)
	}
	if _, ok := e[0].AttrValue("id"); ok {
		t.Error("denied attribute visible in view")
	}
	if got, ok := e[0].AttrValue("pub"); !ok || got != "ok" {
		t.Errorf("granted attribute = %q, %v", got, ok)
	}
}

func TestViewSerializesWithoutIDs(t *testing.T) {
	// §4.4.1: numbers are internal only; the XML serialization of a view
	// must not leak them.
	d, _ := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	h := hier(t)
	p := policy.New()
	if err := p.Grant(h, policy.Read, "/descendant-or-self::node()", "r"); err != nil {
		t.Fatal(err)
	}
	v := materialize(t, d, h, p, "u")
	if out := v.Doc.XML(); strings.Contains(out, "sxml:id") {
		t.Error("view serialization leaks identifiers")
	}
}
