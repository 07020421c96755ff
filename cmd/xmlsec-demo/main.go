// Command xmlsec-demo reproduces every figure and worked example of the
// paper on stdout (experiments F1–F3 and E1–E8 of DESIGN.md).
//
// Usage:
//
//	xmlsec-demo            # run everything
//	xmlsec-demo -fig 1     # one figure (1, 2 or 3)
//	xmlsec-demo -example views   # one example section
//
// Sections: rename, update, append, remove (the §3.4 XUpdate examples),
// policy (axiom 13), views (§4.4.1), covert (§2.2), writes (§4.4.2),
// logic (the Horn-clause axioms on the Datalog engine), and xslt (the §5
// security processor).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"securexml/internal/access"
	"securexml/internal/baseline"
	"securexml/internal/core"
	"securexml/internal/logicmodel"
	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xslt"
	"securexml/internal/xupdate"
)

const medXML = `<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`

func main() {
	fig := flag.Int("fig", 0, "reproduce one figure (1, 2 or 3)")
	example := flag.String("example", "", "reproduce one example section")
	flag.Parse()

	switch {
	case *fig != 0:
		if err := runFigure(*fig); err != nil {
			fail(err)
		}
	case *example != "":
		if err := runExample(*example); err != nil {
			fail(err)
		}
	default:
		for _, f := range []int{2, 3, 1} {
			if err := runFigure(f); err != nil {
				fail(err)
			}
		}
		for _, e := range []string{"rename", "update", "append", "remove", "policy", "views", "covert", "writes", "logic", "xslt"} {
			if err := runExample(e); err != nil {
				fail(err)
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xmlsec-demo:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

func paperEnv() (*xmltree.Document, *subject.Hierarchy, *policy.Policy, error) {
	d, err := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	h := subject.PaperHierarchy()
	p, err := policy.PaperPolicy(h)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, h, p, nil
}

func runFigure(n int) error {
	switch n {
	case 1:
		return fig1()
	case 2:
		return fig2()
	case 3:
		return fig3()
	default:
		return fmt.Errorf("unknown figure %d (have 1, 2, 3)", n)
	}
}

// fig2 prints the sample database of Fig. 2: the node facts (set F of
// axiom 1) and derived child facts of §3.3.
func fig2() error {
	header("Fig. 2 — the sample XML database (node facts and derived geometry)")
	d, err := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	if err != nil {
		return err
	}
	fmt.Println("Document tree (identifier, label):")
	fmt.Print(d.Sketch())
	fmt.Println("\nDerived child(x, y) facts (from identifiers alone):")
	for _, n := range d.Nodes() {
		if p := n.Parent(); p != nil {
			fmt.Printf("  child(%s, %s)\n", n.ID(), p.ID())
		}
	}
	return nil
}

// fig3 prints the subject hierarchy and its isa closure (axioms 10–12).
func fig3() error {
	header("Fig. 3 — subject hierarchy and the isa closure (axioms 10-12)")
	h := subject.PaperHierarchy()
	fmt.Println("Roles:", strings.Join(h.Roles(), ", "))
	fmt.Println("Users:", strings.Join(h.Users(), ", "))
	fmt.Println("\nReflexive-transitive closure (user rows only):")
	for _, u := range h.Users() {
		fmt.Printf("  isa(%s): %s\n", u, strings.Join(h.Ancestors(u), ", "))
	}
	return nil
}

// fig1 reproduces the view access control figure: read vs position.
func fig1() error {
	header("Fig. 1 — view access control: read vs position privileges")
	d, err := xmltree.ParseString(
		`<patients><robert><diagnosis>pneumonia</diagnosis></robert></patients>`,
		xmltree.ParseOptions{})
	if err != nil {
		return err
	}
	h := subject.NewHierarchy()
	if err := h.AddUser("s"); err != nil {
		return err
	}
	p := policy.New()
	for _, step := range []error{
		p.Grant(h, policy.Read, "/descendant-or-self::node()", "s"),
		p.Revoke(h, policy.Read, "/patients/robert", "s"),
		p.Grant(h, policy.Position, "/patients/robert", "s"),
	} {
		if step != nil {
			return step
		}
	}
	fmt.Println("Source tree:")
	fmt.Print(d.Sketch())
	pm, err := p.Evaluate(d, h, "s")
	if err != nil {
		return err
	}
	v := view.Materialize(d, pm)
	fmt.Println("\nUser s holds read everywhere except /patients/robert (position only).")
	fmt.Println("View for s — the patient's name is RESTRICTED, the structure is preserved:")
	fmt.Print(v.Doc.Sketch())
	return nil
}

func runExample(name string) error {
	switch name {
	case "rename":
		return xupdateExample("§3.4.1 xupdate:rename — //service becomes department",
			&xupdate.Op{Kind: xupdate.Rename, Select: "//service", NewValue: "department"})
	case "update":
		return xupdateExample("§3.4.1 xupdate:update — franck's diagnosis becomes pharyngitis",
			&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "pharyngitis"})
	case "append":
		op, err := xupdate.NewOp(xupdate.Append, "/patients",
			"<albert><service>cardiology</service><diagnosis/></albert>")
		if err != nil {
			return err
		}
		return xupdateExample("§3.4.2 xupdate:append — albert's record under /patients", op)
	case "remove":
		return xupdateExample("§3.4.3 xupdate:remove — franck's diagnosis subtree",
			&xupdate.Op{Kind: xupdate.Remove, Select: "/patients/franck/diagnosis"})
	case "policy":
		return policyExample()
	case "views":
		return viewsExample()
	case "covert":
		return covertExample()
	case "writes":
		return writesExample()
	case "logic":
		return logicExample()
	case "xslt":
		return xsltExample()
	default:
		return fmt.Errorf("unknown example %q", name)
	}
}

// xupdateExample demonstrates the §3.4 operations through a core session
// under a fully-privileged "editor" user: on a view that shows every node,
// the secured semantics of axioms 18–25 reduce to the unsecured axioms
// 2–9, so the output matches the paper while the write stays mediated.
func xupdateExample(title string, op *xupdate.Op) error {
	header(title)
	db := core.New()
	if err := db.LoadXMLString(medXML); err != nil {
		return err
	}
	if err := db.AddUser("editor"); err != nil {
		return err
	}
	for _, priv := range policy.Privileges {
		if err := db.Grant(priv, "/descendant-or-self::node()", "editor"); err != nil {
			return err
		}
	}
	s, err := db.Session("editor")
	if err != nil {
		return err
	}
	fmt.Println("Before:")
	fmt.Print(db.SourceSketch())
	res, err := s.Update(op)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s select=%s: selected=%d applied=%d created=%d removed=%d\n",
		op.Kind, op.Select, res.Selected, res.Applied, res.Created, res.Removed)
	fmt.Println("\nAfter (identifiers of surviving nodes unchanged — §3.1):")
	fmt.Print(db.SourceSketch())
	return nil
}

func policyExample() error {
	header("Axiom 13 — the hospital security policy")
	_, h, p, err := paperEnv()
	if err != nil {
		return err
	}
	for i, r := range p.Rules() {
		fmt.Printf("%2d. %s\n", i+1, r)
	}
	fmt.Println("\nPer-user privilege summary on the Fig. 2 database (axiom 14):")
	d, _, _, err := paperEnv()
	if err != nil {
		return err
	}
	for _, user := range h.Users() {
		pm, err := p.Evaluate(d, h, user)
		if err != nil {
			return err
		}
		counts := map[policy.Privilege]int{}
		for _, n := range d.Nodes() {
			for _, priv := range policy.Privileges {
				if pm.Has(n, priv) {
					counts[priv]++
				}
			}
		}
		fmt.Printf("  %-9s read=%-2d position=%-2d insert=%-2d update=%-2d delete=%-2d\n",
			user, counts[policy.Read], counts[policy.Position], counts[policy.Insert],
			counts[policy.Update], counts[policy.Delete])
	}
	return nil
}

func viewsExample() error {
	header("§4.4.1 — the views each subject is permitted to see")
	d, h, p, err := paperEnv()
	if err != nil {
		return err
	}
	for _, user := range []string{"beaufort", "robert", "richard", "laporte"} {
		pm, err := p.Evaluate(d, h, user)
		if err != nil {
			return err
		}
		v := view.Materialize(d, pm)
		fmt.Printf("\nView for %s (restricted=%d, hidden=%d):\n", user, v.Restricted, v.Hidden)
		fmt.Print(v.Doc.XML())
	}
	return nil
}

func covertExample() error {
	header("§2.2 — the covert channel: baseline [10] vs this paper's model")
	src := `<employees><employee><name>ann</name><salary>4000</salary></employee><employee><name>bob</name><salary>3500</salary></employee><employee><name>cid</name><salary>2000</salary></employee></employees>`
	mk := func() (*xmltree.Document, *subject.Hierarchy, *policy.Policy, error) {
		d, err := xmltree.ParseString(src, xmltree.ParseOptions{})
		if err != nil {
			return nil, nil, nil, err
		}
		h := subject.NewHierarchy()
		if err := h.AddUser("user_B"); err != nil {
			return nil, nil, nil, err
		}
		p := policy.New()
		if err := p.Grant(h, policy.Update, "//salary/node()", "user_B"); err != nil {
			return nil, nil, nil, err
		}
		if err := p.Grant(h, policy.Read, "/employees", "user_B"); err != nil {
			return nil, nil, nil, err
		}
		return d, h, p, nil
	}
	probe := &xupdate.Op{Kind: xupdate.Update, Select: "//employee[salary > 3000]/salary", NewValue: "9999"}
	fmt.Println("user_B holds update on salaries but read on nothing below /employees.")
	fmt.Printf("Probe: %s select=%q\n\n", probe.Kind, probe.Select)

	d, h, p, err := mk()
	if err != nil {
		return err
	}
	bres, err := baseline.Execute(d, h, p, "user_B", probe)
	if err != nil {
		return err
	}
	fmt.Printf("Baseline [10] (writes on source):  selected=%d applied=%d  -> LEAK: %d employees earn > 3000\n",
		bres.Selected, bres.Applied, bres.Applied)

	d2, h2, p2, err := mk()
	if err != nil {
		return err
	}
	sres, _, err := access.Execute(d2, h2, p2, "user_B", probe)
	if err != nil {
		return err
	}
	fmt.Printf("This model (writes on the view):   selected=%d applied=%d  -> nothing to learn\n",
		sres.Selected, sres.Applied)
	return nil
}

func writesExample() error {
	header("§4.4.2 — write access controls on views")
	d, h, p, err := paperEnv()
	if err != nil {
		return err
	}
	show := func(user string, op *xupdate.Op) error {
		res, _, err := access.Execute(d, h, p, user, op)
		if err != nil {
			return err
		}
		outcome := "DENIED"
		if res.Applied > 0 {
			outcome = "applied"
		} else if res.Selected == 0 {
			outcome = "invisible (not in view)"
		}
		fmt.Printf("  %-9s %-22s select=%-38s -> %s (selected=%d applied=%d)\n",
			user, op.Kind, op.Select, outcome, res.Selected, res.Applied)
		return nil
	}
	steps := []struct {
		user string
		op   *xupdate.Op
	}{
		{"laporte", &xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "pharyngitis"}},
		{"beaufort", &xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "leak"}},
		{"beaufort", &xupdate.Op{Kind: xupdate.Rename, Select: "/patients/robert", NewValue: "roberto"}},
		{"robert", &xupdate.Op{Kind: xupdate.Remove, Select: "/patients/franck"}},
		{"laporte", &xupdate.Op{Kind: xupdate.Remove, Select: "//diagnosis/node()"}},
	}
	for _, s := range steps {
		if err := show(s.user, s.op); err != nil {
			return err
		}
	}
	fmt.Println("\nDatabase after the permitted operations:")
	fmt.Print(d.Sketch())
	return nil
}

func logicExample() error {
	header("§1/§5 — the axioms as Horn clauses on the Datalog engine")
	d, h, p, err := paperEnv()
	if err != nil {
		return err
	}
	m, err := logicmodel.Build(d, h, p, "beaufort")
	if err != nil {
		return err
	}
	fmt.Println("node_view facts derived for beaufort (secretary) by axioms 14-17:")
	facts := m.ViewFacts()
	for _, n := range d.Nodes() {
		if label, ok := facts[n.IDString()]; ok {
			fmt.Printf("  node_view(%s, %q)\n", n.ID(), label)
		}
	}
	fmt.Println("\n(The property tests in internal/logicmodel check these facts equal")
	fmt.Println(" the native engines' output on randomized databases and policies.)")
	return nil
}

func xsltExample() error {
	header("§5 — the XSLT-based security processor (one stylesheet, per-user reports)")
	d, h, p, err := paperEnv()
	if err != nil {
		return err
	}
	sheet := xslt.MustParseStylesheet(`
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="/">
    <report patients="{count(/patients/*)}"><xsl:apply-templates select="/patients/*"/></report>
  </xsl:template>
  <xsl:template match="/patients/*">
    <row who="{name()}" dx="{diagnosis}"/>
  </xsl:template>
</xsl:stylesheet>`)
	for _, user := range []string{"laporte", "beaufort", "richard", "robert"} {
		pm, err := p.Evaluate(d, h, user)
		if err != nil {
			return err
		}
		out, err := sheet.TransformString(d,
			xpathVars(user), qfilter.ForPerms(pm))
		if err != nil {
			return err
		}
		fmt.Printf("\nas %s:\n%s", user, out)
	}
	fmt.Println("\nThe stylesheet ran on the SOURCE document each time; the security")
	fmt.Println("filter made it observe exactly the user's authorized view (§5).")
	return nil
}

func xpathVars(user string) xpath.Vars {
	return xpath.Vars{"USER": xpath.String(user)}
}
