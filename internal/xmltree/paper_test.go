package xmltree

// Reproduction of the paper's Fig. 2 sample database and the node/geometry
// facts of §3.3 (experiment F2 in DESIGN.md).

import (
	"testing"

	"securexml/internal/labeling"
)

// PaperDocumentXML is the medical-files database of Fig. 2: the document
// node /, root element n1=patients, n2=franck with n3=service
// (n4=otolaryngology) and n5=diagnosis (n6=tonsillitis), and n7=robert, whose
// subtree the paper elides ("…") but later reveals in §4.4.1 as n8=service
// (n9=pneumology) and n10=diagnosis (n11=pneumonia).
const PaperDocumentXML = `<patients>
  <franck>
    <service>otolaryngology</service>
    <diagnosis>tonsillitis</diagnosis>
  </franck>
  <robert>
    <service>pneumology</service>
    <diagnosis>pneumonia</diagnosis>
  </robert>
</patients>`

// paperNodeNames maps the paper's node numbers n1..n11 to (kind, label).
var paperNodeFacts = []struct {
	paperID string
	kind    Kind
	label   string
}{
	{"/", KindDocument, "/"},
	{"n1", KindElement, "patients"},
	{"n2", KindElement, "franck"},
	{"n3", KindElement, "service"},
	{"n4", KindText, "otolaryngology"},
	{"n5", KindElement, "diagnosis"},
	{"n6", KindText, "tonsillitis"},
	{"n7", KindElement, "robert"},
	{"n8", KindElement, "service"},
	{"n9", KindText, "pneumology"},
	{"n10", KindElement, "diagnosis"},
	{"n11", KindText, "pneumonia"},
}

// paperChildFacts is the child relation of §3.3 (extended to robert's
// subtree): child(x, y) = "x is a child of y".
var paperChildFacts = [][2]string{
	{"n1", "/"},
	{"n2", "n1"}, {"n7", "n1"},
	{"n3", "n2"}, {"n5", "n2"},
	{"n4", "n3"}, {"n6", "n5"},
	{"n8", "n7"}, {"n10", "n7"},
	{"n9", "n8"}, {"n11", "n10"},
}

// paperNodes binds the paper's node numbers to the parsed tree, relying on
// document order: Fig. 2 numbers nodes in document order.
func paperNodes(t *testing.T, d *Document) map[string]*Node {
	t.Helper()
	all := d.Nodes()
	if len(all) != len(paperNodeFacts) {
		t.Fatalf("document has %d nodes, want %d", len(all), len(paperNodeFacts))
	}
	m := make(map[string]*Node, len(all))
	for i, f := range paperNodeFacts {
		n := all[i]
		if n.Kind() != f.kind || n.Label() != f.label {
			t.Fatalf("node %s: got (%s, %q), want (%s, %q)",
				f.paperID, n.Kind(), n.Label(), f.kind, f.label)
		}
		m[f.paperID] = n
	}
	return m
}

// TestFig2NodeFacts checks that parsing the Fig. 2 document yields exactly
// the set F of node facts (axiom 1), with the document node labeled "/".
func TestFig2NodeFacts(t *testing.T) {
	d := MustParse(PaperDocumentXML)
	nodes := paperNodes(t, d)
	if nodes["/"] != d.Root() {
		t.Error("first node in document order is not the document node")
	}
	if nodes["/"].ID().String() != "/" {
		t.Errorf("document node identifier = %q, want /", nodes["/"].ID())
	}
}

// TestFig2ChildFacts checks the derived child relation of §3.3, computed
// purely from the persistent identifiers as the paper's numbering-scheme
// axioms require.
func TestFig2ChildFacts(t *testing.T) {
	d := MustParse(PaperDocumentXML)
	nodes := paperNodes(t, d)

	want := make(map[[2]string]bool, len(paperChildFacts))
	for _, f := range paperChildFacts {
		want[f] = true
	}
	for cid, c := range nodes {
		for pid, p := range nodes {
			got := labeling.Holds(labeling.RelChild, c.ID(), p.ID())
			if got != want[[2]string{cid, pid}] {
				t.Errorf("child(%s, %s) = %v, want %v", cid, pid, got, want[[2]string{cid, pid}])
			}
		}
	}
}

// TestFig2GeometryExamples spot-checks the other geometry predicates of
// §3.2 on the paper's document.
func TestFig2GeometryExamples(t *testing.T) {
	d := MustParse(PaperDocumentXML)
	n := paperNodes(t, d)

	check := func(name string, got, want bool) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("descendant(n4, n1)", labeling.Holds(labeling.RelDescendant, n["n4"].ID(), n["n1"].ID()), true)
	check("descendant_or_self(n4, n4)",
		labeling.Holds(labeling.RelDescendant, n["n4"].ID(), n["n4"].ID()) ||
			labeling.Holds(labeling.RelSelf, n["n4"].ID(), n["n4"].ID()), true)
	check("ancestor(n1, n6)", labeling.Holds(labeling.RelAncestor, n["n1"].ID(), n["n6"].ID()), true)
	check("following_sibling(n7, n2)", labeling.Holds(labeling.RelFollowingSibling, n["n7"].ID(), n["n2"].ID()), true)
	check("preceding_sibling(n2, n7)", labeling.Holds(labeling.RelPrecedingSibling, n["n2"].ID(), n["n7"].ID()), true)
	check("following(n8, n6)", labeling.Holds(labeling.RelFollowing, n["n8"].ID(), n["n6"].ID()), true)
	check("preceding(n6, n8)", labeling.Holds(labeling.RelPreceding, n["n6"].ID(), n["n8"].ID()), true)
	check("not child(n4, n1)", labeling.Holds(labeling.RelChild, n["n4"].ID(), n["n1"].ID()), false)
	check("not following(n6, n8)", labeling.Holds(labeling.RelFollowing, n["n6"].ID(), n["n8"].ID()), false)
}

// TestFig2AppendAlbert reproduces the §3.4.2 append example at the tree
// level: inserting albert's record under /patients yields the new geometry
// facts the paper lists (preceding_sibling(n7, n1”), child(n1”, n1), …).
func TestFig2AppendAlbert(t *testing.T) {
	d := MustParse(PaperDocumentXML)
	n := paperNodes(t, d)

	frag := MustParseFragment(`<albert><service>cardiology</service><diagnosis/></albert>`)
	top, err := d.Graft(n["n1"], GraftAppend, frag.Root().Children()[0])
	if err != nil {
		t.Fatal(err)
	}
	// child(n1'', n1)
	if !labeling.Holds(labeling.RelChild, top.ID(), n["n1"].ID()) {
		t.Error("albert not derived as child of patients")
	}
	// preceding_sibling(n7, n1''): robert immediately precedes albert.
	if !labeling.Holds(labeling.RelPrecedingSibling, n["n7"].ID(), top.ID()) {
		t.Error("robert not derived as preceding sibling of albert")
	}
	// child(n2'', n1'') and child(n4'', n1''): service and diagnosis under albert.
	service, diagnosis := top.Children()[0], top.Children()[1]
	if service.Label() != "service" || diagnosis.Label() != "diagnosis" {
		t.Fatalf("albert children = %v", labels(top.Children()))
	}
	// preceding_sibling(n2'', n4'')
	if !labeling.Holds(labeling.RelPrecedingSibling, service.ID(), diagnosis.ID()) {
		t.Error("service not derived as preceding sibling of diagnosis")
	}
	// Existing nodes keep their identifiers (axiom 6 / §3.1 no renumbering).
	for pid, node := range n {
		if d.NodeByID(node.IDString()) != node {
			t.Errorf("node %s lost or renumbered after append", pid)
		}
	}
}
