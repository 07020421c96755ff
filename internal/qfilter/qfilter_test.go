package qfilter

import (
	"fmt"
	"math/rand"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

const medXML = `<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`

func paperEnv(t *testing.T) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	t.Helper()
	d, err := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := subject.PaperHierarchy()
	p, err := policy.PaperPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

func perms(t *testing.T, d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, user string) *policy.Perms {
	t.Helper()
	pm, err := p.Evaluate(d, h, user)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// ids extracts source identifiers from a node-set.
func ids(ns xpath.NodeSet) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.ID().String()
	}
	return out
}

// checkEquivalence: Select on source with the filter must return the same
// identifier sequence as Select on the materialized view, and atomic
// results must match too.
func checkEquivalence(t *testing.T, d *xmltree.Document, pm *policy.Perms, path, user string) {
	t.Helper()
	vars := xpath.Vars{"USER": xpath.String(user)}
	v := view.Materialize(d, pm)

	c, err := xpath.Compile(path)
	if err != nil {
		t.Fatal(err)
	}
	filteredVal, ferr := c.EvalFiltered(d.Root(), vars, ForPerms(pm))
	viewVal, verr := c.Eval(v.Doc.Root(), vars)
	if (ferr == nil) != (verr == nil) {
		t.Fatalf("%s (%s): error mismatch: filtered=%v view=%v", path, user, ferr, verr)
	}
	if ferr != nil {
		return
	}
	fNS, fIsNS := filteredVal.(xpath.NodeSet)
	vNS, vIsNS := viewVal.(xpath.NodeSet)
	if fIsNS != vIsNS {
		t.Fatalf("%s (%s): type mismatch: %s vs %s", path, user, filteredVal.TypeName(), viewVal.TypeName())
	}
	if fIsNS {
		got, want := ids(fNS), ids(vNS)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s (%s):\n filtered: %v\n view:     %v", path, user, got, want)
		}
		return
	}
	if filteredVal != viewVal {
		t.Errorf("%s (%s): filtered %v, view %v", path, user, filteredVal, viewVal)
	}
}

// paperQueries covers names, wildcards, text tests, predicates, positions,
// string functions, counts — including RESTRICTED-label node tests.
var paperQueries = []string{
	"/patients",
	"/patients/*",
	"//diagnosis",
	"//diagnosis/text()",
	"//service/text()",
	"/patients/franck",
	"/patients/RESTRICTED",
	"/patients/RESTRICTED/service",
	"//RESTRICTED",
	"//*[text() = 'RESTRICTED']",
	"//*[service = 'pneumology']",
	"/patients/*[2]",
	"/patients/*[last()]",
	"//diagnosis/..",
	"//text()",
	"count(//diagnosis)",
	"count(//*)",
	"string(/patients/franck/diagnosis)",
	"string(//RESTRICTED)",
	"name(/patients/*[1])",
	"count(//*[name() = 'RESTRICTED'])",
	"sum(//nothing)",
	"normalize-space(/patients/robert/service)",
	"boolean(//RESTRICTED)",
	"//*[starts-with(text(), 'pneu')]",
	"/patients/descendant-or-self::node()",
	"//diagnosis/following-sibling::*",
	"//service/preceding-sibling::*",
	"//tonsillitis",
}

// TestPaperEquivalence: every query, every paper user.
func TestPaperEquivalence(t *testing.T) {
	d, h, p := paperEnv(t)
	for _, user := range h.Users() {
		pm := perms(t, d, h, p, user)
		for _, q := range paperQueries {
			checkEquivalence(t, d, pm, q, user)
		}
	}
}

// TestFilteredHidesInvisible: direct checks that the filter enforces the
// model (not only equivalence).
func TestFilteredHidesInvisible(t *testing.T) {
	d, h, p := paperEnv(t)
	// robert must not reach franck's data however the query is phrased.
	pm := perms(t, d, h, p, "robert")
	for _, q := range []string{"//franck", "//tonsillitis", "/patients/franck/diagnosis", "//*[text() = 'tonsillitis']"} {
		ns, err := Select(d, pm, q, xpath.Vars{"USER": xpath.String("robert")})
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) != 0 {
			t.Errorf("robert reached %s: %d nodes", q, len(ns))
		}
	}
	// The secretary sees diagnosis texts as RESTRICTED: the true label must
	// not match, the effective label must.
	pmS := perms(t, d, h, p, "beaufort")
	ns, err := Select(d, pmS, "//tonsillitis", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 0 {
		t.Error("secretary matched the hidden label")
	}
	ns, err = Select(d, pmS, "//diagnosis/RESTRICTED", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 0 {
		t.Error("text nodes are not elements; RESTRICTED name test must not match them")
	}
	ns, err = Select(d, pmS, "//diagnosis/text()", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 {
		t.Fatalf("secretary sees %d diagnosis texts", len(ns))
	}
	// And their effective string value is RESTRICTED.
	v, err := Eval(d, pmS, "string(//diagnosis/text())", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != xmltree.Restricted {
		t.Errorf("effective text = %q", v.Str())
	}
}

// TestFilteredStringValueOfElements: an element's string-value under the
// filter concatenates only visible text, with RESTRICTED substitutions.
func TestFilteredStringValueOfElements(t *testing.T) {
	d, h, p := paperEnv(t)
	pm := perms(t, d, h, p, "beaufort")
	v, err := Eval(d, pm, "string(/patients/franck)", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "otolaryngology" + xmltree.Restricted
	if v.Str() != want {
		t.Errorf("franck string-value = %q, want %q", v.Str(), want)
	}
	// For robert (patient), franck is invisible entirely: string of the
	// patients element includes only robert's subtree.
	pmR := perms(t, d, h, p, "robert")
	v, err = Eval(d, pmR, "string(/patients)", xpath.Vars{"USER": xpath.String("robert")})
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "pneumologypneumonia" {
		t.Errorf("patients string-value for robert = %q", v.Str())
	}
}

// TestRandomizedEquivalence fuzzes documents, policies and queries. Each
// round removes a few nodes and inserts a replacement where each stood
// (the labeling scheme may re-issue its identifier, never its ordinal),
// then clones the document, as a commit round does, so the permissions —
// both the reference Evaluate and the shared-scan EvaluateShared — are
// evaluated over ordinals with holes.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	names := []string{"a", "b", "c", "diagnosis"}
	queryPool := []string{
		"//a", "//b", "//c", "//diagnosis", "//RESTRICTED", "//*",
		"//a/node()", "/root/*", "//text()", "count(//*)",
		"//*[a]", "//*[not(b)]", "//a[1]", "//*[text()]",
		"string(//a)", "//b/following-sibling::*", "//c/ancestor::*",
		"//*[name() = 'RESTRICTED']", "count(//RESTRICTED)",
	}
	for round := 0; round < 30; round++ {
		// Random doc.
		d := xmltree.New(nil)
		root, err := d.AppendChild(d.Root(), xmltree.KindElement, "root")
		if err != nil {
			t.Fatal(err)
		}
		elems := []*xmltree.Node{root}
		for i := 0; i < 15+rng.Intn(15); i++ {
			parent := elems[rng.Intn(len(elems))]
			if rng.Intn(4) == 0 {
				if _, err := d.AppendChild(parent, xmltree.KindText, fmt.Sprintf("t%d", i)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			n, err := d.AppendChild(parent, xmltree.KindElement, names[rng.Intn(len(names))])
			if err != nil {
				t.Fatal(err)
			}
			elems = append(elems, n)
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			all := d.Nodes()
			victim := all[rng.Intn(len(all))]
			if victim.Kind() == xmltree.KindDocument || victim == d.RootElement() {
				continue
			}
			parent, next := victim.Parent(), victim.FollowingSibling()
			if err := d.Remove(victim); err != nil {
				t.Fatal(err)
			}
			label := names[rng.Intn(len(names))]
			if next != nil {
				_, err = d.InsertBefore(next, xmltree.KindElement, label)
			} else {
				_, err = d.AppendChild(parent, xmltree.KindElement, label)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if d.OrdLimit() == uint32(d.Len()) {
			t.Fatal("no ordinal hole")
		}
		d = d.Clone()
		// Random policy.
		h := subject.NewHierarchy()
		if err := h.AddUser("u"); err != nil {
			t.Fatal(err)
		}
		p := policy.New()
		paths := []string{
			"/descendant-or-self::node()", "//a", "//b", "//c/node()",
			"//diagnosis", "/root/*", "//a/node()", "//text()",
		}
		for i := 0; i < 4+rng.Intn(6); i++ {
			eff := policy.Accept
			if rng.Intn(3) == 0 {
				eff = policy.Deny
			}
			priv := policy.Read
			if rng.Intn(3) == 0 {
				priv = policy.Position
			}
			err := p.Add(h, policy.Rule{
				Effect: eff, Privilege: priv, Path: paths[rng.Intn(len(paths))],
				Subject: "u", Priority: int64(i + 1),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		pm := perms(t, d, h, p, "u")
		shared, err := policy.NewRuleCache(p, d).EvaluateShared(h, "u")
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queryPool {
			checkEquivalence(t, d, pm, q, "u")
			checkEquivalence(t, d, shared, q, "u")
		}
	}
}

func TestSelectCompileError(t *testing.T) {
	d, h, p := paperEnv(t)
	pm := perms(t, d, h, p, "laporte")
	if _, err := Select(d, pm, "//[", nil); err == nil {
		t.Error("bad path accepted")
	}
	if _, err := Eval(d, pm, "//[", nil); err == nil {
		t.Error("bad expression accepted")
	}
}
