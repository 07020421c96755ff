package access

// Reproduction of the §2.2 covert channel (experiment E7 in DESIGN.md).
//
// The SQL example of the paper, transposed to XML: user_B may update
// salaries but not read them. Under the baseline model [10] (writes
// evaluated on the source), the operation outcome reveals how many
// employees earn more than 3000 — "2 rows updated". Under this paper's
// model (writes evaluated on the view), the same operation selects nothing,
// because the salaries are not in user_B's view.

import (
	"context"
	"testing"

	"securexml/internal/baseline"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

const employeesXML = `<employees>
  <employee><name>ann</name><salary>4000</salary></employee>
  <employee><name>bob</name><salary>3500</salary></employee>
  <employee><name>cid</name><salary>2000</salary></employee>
</employees>`

// covertEnv: user_B holds update on salary contents but read on nothing
// below the root — the §2.2 grant "sole update privilege".
func covertEnv(t *testing.T) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	t.Helper()
	d, err := xmltree.ParseString(employeesXML, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := subject.NewHierarchy()
	if err := h.AddUser("user_B"); err != nil {
		t.Fatal(err)
	}
	p := policy.New()
	if err := p.Grant(h, policy.Update, "//salary/node()", "user_B"); err != nil {
		t.Fatal(err)
	}
	if err := p.Grant(h, policy.Read, "/employees", "user_B"); err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

// probe is the §2.2 attack: "UPDATE ... WHERE salary > 3000" as an XUpdate.
var probe = &xupdate.Op{
	Kind:     xupdate.Update,
	Select:   "//employee[salary > 3000]/salary",
	NewValue: "9999",
}

// TestBaselineLeaksCount: under model [10], the attack succeeds and the
// result count reveals there are exactly 2 employees above 3000.
func TestBaselineLeaksCount(t *testing.T) {
	d, h, p := covertEnv(t)
	res, err := baseline.Execute(d, h, p, "user_B", probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 2 {
		t.Fatalf("baseline selected %d, want the leak of 2", res.Selected)
	}
	if res.Applied != 2 {
		t.Fatalf("baseline applied %d, want 2 ('2 rows updated')", res.Applied)
	}
}

// TestSecuredModelClosesChannel: under this paper's model the same probe
// runs against user_B's view, which contains no salary data; the result is
// indistinguishable from "no such employees".
func TestSecuredModelClosesChannel(t *testing.T) {
	d, h, p := covertEnv(t)
	res, _, err := Execute(d, h, p, "user_B", probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != 0 || res.Applied != 0 {
		t.Fatalf("secured model leaked: %+v", res)
	}
	// And the database is untouched.
	if got := countNodes(t, d, "//salary[. = '9999']"); got != 0 {
		t.Errorf("secured model modified %d salaries", got)
	}
}

// TestSecuredResultIndependentOfHiddenData: the decisive property — two
// databases differing only in data hidden from user_B produce identical
// operation results, so no function of the result can leak. Both secured
// executors are held to it: the specification, which selects on the
// materialized view, and the production path, which selects on the frozen
// source under user_B's permissions and copies it only to change it. The
// baseline model distinguishes the databases.
func TestSecuredResultIndependentOfHiddenData(t *testing.T) {
	type executor int
	const (
		onView executor = iota
		filtered
		unsecured
	)
	run := func(xml string, exec executor) *xupdate.Result {
		t.Helper()
		d, err := xmltree.ParseString(xml, xmltree.ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := subject.NewHierarchy()
		if err := h.AddUser("user_B"); err != nil {
			t.Fatal(err)
		}
		p := policy.New()
		if err := p.Grant(h, policy.Update, "//salary/node()", "user_B"); err != nil {
			t.Fatal(err)
		}
		if err := p.Grant(h, policy.Read, "/employees", "user_B"); err != nil {
			t.Fatal(err)
		}
		var res *xupdate.Result
		switch exec {
		case onView:
			res, _, err = Execute(d, h, p, "user_B", probe)
		case filtered:
			d.Freeze()
			var pm *policy.Perms
			if pm, err = p.Evaluate(d, h, "user_B"); err != nil {
				t.Fatal(err)
			}
			res, err = ExecuteFilteredCtx(context.Background(), d, d.Clone, pm, "user_B", probe, nil)
		case unsecured:
			res, err = baseline.Execute(d, h, p, "user_B", probe)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rich := `<employees><employee><name>a</name><salary>9000</salary></employee><employee><name>b</name><salary>8000</salary></employee></employees>`
	poor := `<employees><employee><name>a</name><salary>100</salary></employee><employee><name>b</name><salary>200</salary></employee></employees>`

	for _, exec := range []executor{onView, filtered} {
		sRich, sPoor := run(rich, exec), run(poor, exec)
		if sRich.Selected != sPoor.Selected || sRich.Applied != sPoor.Applied || len(sRich.Skipped) != len(sPoor.Skipped) {
			t.Errorf("secured executor %d: results differ on hidden data: %+v vs %+v", exec, sRich, sPoor)
		}
	}
	bRich, bPoor := run(rich, unsecured), run(poor, unsecured)
	if bRich.Selected == bPoor.Selected {
		t.Error("baseline unexpectedly does not distinguish the databases (test setup broken?)")
	}
}

// TestBaselinePrivilegeChecksStillApply: the baseline is not a free-for-all
// — it checks write privileges like [10]; it only skips read mediation.
func TestBaselinePrivilegeChecksStillApply(t *testing.T) {
	d, h, p := covertEnv(t)
	// Renaming employee elements requires update on them — not granted.
	res, err := baseline.Execute(d, h, p, "user_B",
		&xupdate.Op{Kind: xupdate.Rename, Select: "//employee", NewValue: "person"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || len(res.Skipped) != 3 {
		t.Errorf("result = %+v", res)
	}
	if _, err := baseline.Execute(d, h, p, "ghost", probe); err == nil {
		t.Error("baseline accepted unknown user")
	}
	if _, err := baseline.Execute(d, h, p, "user_B", &xupdate.Op{Kind: xupdate.Remove, Select: "//["}); err == nil {
		t.Error("baseline accepted invalid op")
	}
}

// TestBaselineAllOpsOnSource exercises the remaining baseline operations so
// the comparison harness (bench B3) measures real work.
func TestBaselineAllOpsOnSource(t *testing.T) {
	d, h, p := covertEnv(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Grant(h, policy.Insert, "//employee", "user_B"))
	must(p.Grant(h, policy.Insert, "/employees", "user_B"))
	must(p.Grant(h, policy.Delete, "//employee[3]", "user_B"))

	frag := func(s string) *xmltree.Document {
		f, err := xmltree.ParseString(s, xmltree.ParseOptions{Fragment: true})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	res, err := baseline.Execute(d, h, p, "user_B",
		&xupdate.Op{Kind: xupdate.Append, Select: "//employee[1]", Content: frag("<badge>1</badge>")})
	if err != nil || res.Applied != 1 {
		t.Fatalf("append: %v %+v", err, res)
	}
	res, err = baseline.Execute(d, h, p, "user_B",
		&xupdate.Op{Kind: xupdate.InsertBefore, Select: "//employee[1]", Content: frag("<intern/>")})
	if err != nil || res.Applied != 1 {
		t.Fatalf("insert-before: %v %+v", err, res)
	}
	res, err = baseline.Execute(d, h, p, "user_B",
		&xupdate.Op{Kind: xupdate.InsertAfter, Select: "//employee[1]", Content: frag("<temp/>")})
	if err != nil || res.Applied != 1 {
		t.Fatalf("insert-after: %v %+v", err, res)
	}
	res, err = baseline.Execute(d, h, p, "user_B",
		&xupdate.Op{Kind: xupdate.Remove, Select: "//employee[3]"})
	if err != nil || res.Applied != 1 {
		t.Fatalf("remove: %v %+v", err, res)
	}
}

// TestValueOfCannotExfiltrateHiddenData: the second face of the §2.2
// channel — using a write's *content* rather than its result count to copy
// hidden data somewhere readable. With dynamic content expanded on the
// view, the copy carries only what the user could already see.
func TestValueOfCannotExfiltrateHiddenData(t *testing.T) {
	// user_B can insert under /employees but cannot read salaries.
	d, h, p := covertEnv(t)
	if err := p.Grant(h, policy.Insert, "/employees", "user_B"); err != nil {
		t.Fatal(err)
	}
	ops, err := xupdate.ParseModificationsString(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:append select="/employees">
		    <xupdate:element name="stash"><xupdate:value-of select="//salary"/></xupdate:element>
		  </xupdate:append>
		</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline [10]: the stash fills with the hidden salaries.
	dB, hB, pB := covertEnv(t)
	if err := pB.Grant(hB, policy.Insert, "/employees", "user_B"); err != nil {
		t.Fatal(err)
	}
	bres, err := baseline.Execute(dB, hB, pB, "user_B", ops[0])
	if err != nil {
		t.Fatal(err)
	}
	if bres.Created < 2 {
		t.Fatalf("baseline did not exfiltrate (test setup broken): %+v", bres)
	}
	if got := countNodes(t, dB, "/employees/stash/salary"); got != 3 {
		t.Fatalf("baseline stash has %d salaries, want 3 (the leak)", got)
	}
	// This paper's model: value-of expands on user_B's view, which contains
	// no salaries — the stash is created but empty.
	res, _, err := Execute(d, h, p, "user_B", ops[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("append refused entirely: %+v", res)
	}
	if got := countNodes(t, d, "/employees/stash/salary"); got != 0 {
		t.Errorf("secured model exfiltrated %d salaries", got)
	}
	if got := text(t, d, "/employees/stash"); got != "" {
		t.Errorf("secured stash contains %q", got)
	}
}
