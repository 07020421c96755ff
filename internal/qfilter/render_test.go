package qfilter

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// byteSource turns fuzz input into choices; an exhausted source chooses 0.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) pick(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i])
	s.i++
	return v % n
}

// renderRulePaths are the rule paths the generated policies draw from:
// element, text, comment and attribute targets, so views mix shown,
// RESTRICTED and hidden nodes of every kind.
var renderRulePaths = []string{
	"/descendant-or-self::node()", "//a", "//b/node()", "//text()",
	"//comment()", "//@x", "//@*", "//@*/node()", "/root", "/root/*",
	"//c", "//*[a]", "//a/descendant-or-self::node()", "//@y/text()",
}

// renderCase builds a document and one user's permissions from src: a
// random tree of elements, text (mixed content included), comments and
// attributes, and a random policy of read and position rules.
func renderCase(t testing.TB, src *byteSource) (*xmltree.Document, *policy.Perms) {
	t.Helper()
	d := xmltree.New(nil)
	if src.pick(4) == 0 {
		if _, err := d.AppendChild(d.Root(), xmltree.KindComment, "lead"); err != nil {
			t.Fatal(err)
		}
	}
	root, err := d.AppendChild(d.Root(), xmltree.KindElement, "root")
	if err != nil {
		t.Fatal(err)
	}
	elems := []*xmltree.Node{root}
	names := []string{"a", "b", "c", "x"}
	for i, n := 0, 4+src.pick(28); i < n; i++ {
		parent := elems[src.pick(len(elems))]
		switch src.pick(5) {
		case 0:
			text := fmt.Sprintf("t%d<&\"\t", i)
			if src.pick(4) == 0 {
				text = "" // an empty text child still makes its parent non-empty
			}
			_, err = d.AppendChild(parent, xmltree.KindText, text)
		case 1:
			_, err = d.AppendChild(parent, xmltree.KindComment, fmt.Sprintf("c%d", i))
		case 2:
			_, err = d.SetAttribute(parent, []string{"x", "y", "z"}[src.pick(3)], fmt.Sprintf("v%d&'\"", i))
		default:
			var e *xmltree.Node
			if e, err = d.AppendChild(parent, xmltree.KindElement, names[src.pick(len(names))]); err == nil {
				elems = append(elems, e)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	h := subject.NewHierarchy()
	if err := h.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	p := policy.New()
	for i, n := 0, 1+src.pick(7); i < n; i++ {
		eff, priv := policy.Accept, policy.Read
		if src.pick(3) == 0 {
			eff = policy.Deny
		}
		if src.pick(2) == 0 {
			priv = policy.Position
		}
		rule := policy.Rule{Effect: eff, Privilege: priv, Path: renderRulePaths[src.pick(len(renderRulePaths))], Subject: "u", Priority: int64(i + 1)}
		if err := p.Add(h, rule); err != nil {
			t.Fatal(err)
		}
	}
	pm, err := p.Evaluate(d, h, "u")
	if err != nil {
		t.Fatal(err)
	}
	return d, pm
}

// subtreeSignature lists n's subtree as identifier, kind and label lines.
func subtreeSignature(n *xmltree.Node) string {
	var b strings.Builder
	n.Walk(func(m *xmltree.Node) bool {
		fmt.Fprintf(&b, "%s|%d|%s\n", m.ID(), m.Kind(), m.Label())
		return true
	})
	return b.String()
}

// checkRender holds the filtered renderings of d under pm to the
// specification, the materialized view: the serialization, pretty and
// compact, byte for byte; and for every node the filter lets a query
// reach, its CopyFiltered copy — alone and among all the others — node
// for node against the view's node, with the same path and string-value.
func checkRender(t testing.TB, d *xmltree.Document, pm *policy.Perms) {
	t.Helper()
	v := view.Materialize(d, pm)
	f := ForPerms(pm)
	for _, indent := range []string{"  ", ""} {
		var got, want strings.Builder
		if err := d.Write(&got, xmltree.WriteOptions{Indent: indent, Filter: f}); err != nil {
			t.Fatal(err)
		}
		if err := v.Doc.Write(&want, xmltree.WriteOptions{Indent: indent}); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("indent %q: filtered serialization differs from the view\nsource:\n%s\nfiltered: %s\nview:     %s",
				indent, d.Sketch(), got.String(), want.String())
		}
	}
	c, err := xpath.Compile("//node() | //@*")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.SelectFiltered(d.Root(), nil, f)
	if err != nil {
		t.Fatal(err)
	}
	all := xmltree.CopyFiltered(ns, f)
	for i, n := range ns {
		vn := v.Doc.NodeByID(n.IDString())
		if vn == nil {
			t.Fatalf("filtered query reached %s, which the view lacks", n.IDString())
		}
		for _, cp := range []*xmltree.Node{all[i], xmltree.CopyFiltered(ns[i:i+1], f)[0]} {
			if cp.Path() != vn.Path() || cp.StringValue() != vn.StringValue() || subtreeSignature(cp) != subtreeSignature(vn) {
				t.Fatalf("copy of %s: path %s value %q\n%s\nview: path %s value %q\n%s",
					n.IDString(), cp.Path(), cp.StringValue(), subtreeSignature(cp), vn.Path(), vn.StringValue(), subtreeSignature(vn))
			}
			if cp.Ord() != n.Ord() || !cp.Document().Frozen() {
				t.Fatalf("copy of %s: ordinal %d (source %d), frozen %t", n.IDString(), cp.Ord(), n.Ord(), cp.Document().Frozen())
			}
		}
	}
}

// TestFilteredRenderCases pins the shapes where a filtered walk could
// part from the materialized view: mixed content whose text hides or
// shows RESTRICTED, attributes whose value text is position-only or
// hidden, comments, and elements whose children all hide (which must
// close as empty elements).
func TestFilteredRenderCases(t *testing.T) {
	const doc = `<root x="1" y="2"><a>t1<b>in</b>t2<!--c--></a><b><c/><c>deep</c></b><c z="3">only</c></root>`
	for _, tc := range []struct {
		name  string
		rules []policy.Rule
	}{
		{"everything", []policy.Rule{{Effect: policy.Accept, Privilege: policy.Read, Path: "/descendant-or-self::node()"}}},
		{"mixed content, text hidden", []policy.Rule{
			{Effect: policy.Accept, Privilege: policy.Read, Path: "/descendant-or-self::node()"},
			{Effect: policy.Deny, Privilege: policy.Read, Path: "//a/text()"},
		}},
		{"mixed content, text position-only", []policy.Rule{
			{Effect: policy.Accept, Privilege: policy.Read, Path: "/descendant-or-self::node()"},
			{Effect: policy.Deny, Privilege: policy.Read, Path: "//a/text()"},
			{Effect: policy.Accept, Privilege: policy.Position, Path: "//a/text()"},
		}},
		{"attributes position-only and value hidden", []policy.Rule{
			{Effect: policy.Accept, Privilege: policy.Read, Path: "/descendant-or-self::node()"},
			{Effect: policy.Deny, Privilege: policy.Read, Path: "//@x"},
			{Effect: policy.Accept, Privilege: policy.Position, Path: "//@x"},
			{Effect: policy.Deny, Privilege: policy.Read, Path: "//@y/node()"},
			{Effect: policy.Accept, Privilege: policy.Position, Path: "//@z/node()"},
			{Effect: policy.Deny, Privilege: policy.Read, Path: "//@z/node()"},
		}},
		{"comments position-only", []policy.Rule{
			{Effect: policy.Accept, Privilege: policy.Read, Path: "/descendant-or-self::node()"},
			{Effect: policy.Deny, Privilege: policy.Read, Path: "//comment()"},
			{Effect: policy.Accept, Privilege: policy.Position, Path: "//comment()"},
		}},
		{"children all hidden", []policy.Rule{
			{Effect: policy.Accept, Privilege: policy.Read, Path: "/descendant-or-self::node()"},
			{Effect: policy.Deny, Privilege: policy.Read, Path: "//b/node()"},
			{Effect: policy.Deny, Privilege: policy.Read, Path: "//c/node()"},
		}},
		{"skeleton only", []policy.Rule{{Effect: policy.Accept, Privilege: policy.Position, Path: "/root/*"}, {Effect: policy.Accept, Privilege: policy.Read, Path: "/root"}}},
		{"nothing", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := xmltree.ParseString(doc, xmltree.ParseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h := subject.NewHierarchy()
			if err := h.AddUser("u"); err != nil {
				t.Fatal(err)
			}
			p := policy.New()
			for i, r := range tc.rules {
				r.Subject, r.Priority = "u", int64(i+1)
				if err := p.Add(h, r); err != nil {
					t.Fatal(err)
				}
			}
			checkRender(t, d, perms(t, d, h, p, "u"))
		})
	}
}

// TestFilteredRenderRandom is checkRender over seeded random documents
// and policies.
func TestFilteredRenderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 300; round++ {
		b := make([]byte, 96)
		rng.Read(b)
		d, pm := renderCase(t, &byteSource{b: b})
		checkRender(t, d, pm)
	}
}

// FuzzFilteredRender is checkRender over fuzzed documents and policies.
func FuzzFilteredRender(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 20, 0, 0, 1, 0, 2, 0, 3, 1, 4, 0, 0, 2, 3, 0, 5, 1, 1, 0, 3})
	f.Add([]byte("mixed content with attributes and comments, positions only"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 256 {
			b = b[:256]
		}
		d, pm := renderCase(t, &byteSource{b: b})
		checkRender(t, d, pm)
	})
}
