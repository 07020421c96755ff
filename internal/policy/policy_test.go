package policy

import (
	"errors"
	"strings"
	"testing"

	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

const medXML = `<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`

func setup(t *testing.T) (*xmltree.Document, *subject.Hierarchy) {
	t.Helper()
	d, err := xmltree.ParseString(medXML, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return d, subject.PaperHierarchy()
}

func node(t *testing.T, d *xmltree.Document, path string) *xmltree.Node {
	t.Helper()
	ns, err := xpath.Select(d, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 {
		t.Fatalf("%s selected %d nodes, want 1", path, len(ns))
	}
	return ns[0]
}

func TestPrivilegeStringParse(t *testing.T) {
	for _, p := range Privileges {
		got, err := ParsePrivilege(p.String())
		if err != nil || got != p {
			t.Errorf("round trip of %s failed: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePrivilege("fly"); err == nil {
		t.Error("unknown privilege parsed")
	}
	if got, err := ParsePrivilege(" READ "); err != nil || got != Read {
		t.Errorf("case/space-insensitive parse: %v, %v", got, err)
	}
	if !strings.Contains(Privilege(9).String(), "9") {
		t.Error("unknown privilege String")
	}
	if Accept.String() != "accept" || Deny.String() != "deny" {
		t.Error("Effect.String wrong")
	}
}

func TestAddValidation(t *testing.T) {
	_, h := setup(t)
	p := New()
	if err := p.Add(h, Rule{Effect: Accept, Privilege: Read, Path: "//x", Subject: "ghost", Priority: 1}); !errors.Is(err, ErrUnknownSubject) {
		t.Errorf("unknown subject: %v", err)
	}
	if err := p.Add(h, Rule{Effect: Accept, Privilege: Read, Path: "//[", Subject: "staff", Priority: 1}); err == nil {
		t.Error("bad path accepted")
	}
	if err := p.Add(h, Rule{Effect: Accept, Privilege: Privilege(9), Path: "//x", Subject: "staff", Priority: 1}); err == nil {
		t.Error("bad privilege accepted")
	}
	if err := p.Add(h, Rule{Effect: Accept, Privilege: Read, Path: "//x", Subject: "staff", Priority: 0}); err == nil {
		t.Error("zero priority accepted")
	}
	if err := p.Add(h, Rule{Effect: Accept, Privilege: Read, Path: "//x", Subject: "staff", Priority: 5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(h, Rule{Effect: Deny, Privilege: Read, Path: "//y", Subject: "staff", Priority: 5}); !errors.Is(err, ErrDuplicatePriority) {
		t.Errorf("duplicate priority: %v", err)
	}
}

func TestGrantRevokeAutoPriority(t *testing.T) {
	_, h := setup(t)
	p := New()
	if err := p.Grant(h, Read, "//service", "staff"); err != nil {
		t.Fatal(err)
	}
	if err := p.Revoke(h, Read, "//service", "secretary"); err != nil {
		t.Fatal(err)
	}
	rules := p.Rules()
	if len(rules) != 2 || rules[0].Priority >= rules[1].Priority {
		t.Fatalf("auto priorities wrong: %v", rules)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestEvaluateLatestRuleWins(t *testing.T) {
	d, h := setup(t)
	p := New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Grant to staff, deny to secretary (later), re-grant to beaufort (latest).
	must(p.Grant(h, Read, "//service", "staff"))
	must(p.Revoke(h, Read, "//service", "secretary"))
	svc := node(t, d, "/patients/franck/service")

	perms := func(user string) *Perms {
		pm, err := p.Evaluate(d, h, user)
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	if !perms("laporte").Has(svc, Read) {
		t.Error("doctor lost read (deny targeted secretaries)")
	}
	if perms("beaufort").Has(svc, Read) {
		t.Error("secretary kept read after later deny")
	}
	// A later accept overrides the deny again.
	must(p.Grant(h, Read, "//service", "beaufort"))
	if !perms("beaufort").Has(svc, Read) {
		t.Error("later accept did not override deny")
	}
	// But an even later deny on a covering path wins once more.
	must(p.Revoke(h, Read, "//*", "beaufort"))
	if perms("beaufort").Has(svc, Read) {
		t.Error("latest covering deny ignored")
	}
}

func TestEvaluateEarlierDenyDoesNotDefeatLaterAccept(t *testing.T) {
	// Axiom 14: only a deny with t' > t defeats an accept at t.
	d, h := setup(t)
	p := New()
	if err := p.Revoke(h, Read, "//service", "staff"); err != nil {
		t.Fatal(err)
	}
	if err := p.Grant(h, Read, "//service", "staff"); err != nil {
		t.Fatal(err)
	}
	pm, err := p.Evaluate(d, h, "laporte")
	if err != nil {
		t.Fatal(err)
	}
	if !pm.Has(node(t, d, "/patients/franck/service"), Read) {
		t.Error("earlier deny defeated later accept")
	}
}

func TestEvaluateClosedWorld(t *testing.T) {
	d, h := setup(t)
	p := New() // no rules at all
	pm, err := p.Evaluate(d, h, "laporte")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nodes() {
		for _, priv := range Privileges {
			if pm.Has(n, priv) {
				t.Fatalf("perm(%s, %s, %s) granted with an empty policy", "laporte", n.ID(), priv)
			}
		}
	}
}

func TestEvaluateRoleInheritance(t *testing.T) {
	d, h := setup(t)
	p := New()
	if err := p.Grant(h, Delete, "//diagnosis", "staff"); err != nil {
		t.Fatal(err)
	}
	diag := node(t, d, "/patients/franck/diagnosis")
	for _, user := range []string{"laporte", "beaufort", "richard"} {
		pm, err := p.Evaluate(d, h, user)
		if err != nil {
			t.Fatal(err)
		}
		if !pm.Has(diag, Delete) {
			t.Errorf("staff rule does not apply to %s", user)
		}
	}
	// Patients are not staff.
	pm, err := p.Evaluate(d, h, "robert")
	if err != nil {
		t.Fatal(err)
	}
	if pm.Has(diag, Delete) {
		t.Error("staff rule leaked to patient")
	}
}

func TestEvaluateUserVariable(t *testing.T) {
	d, h := setup(t)
	p := New()
	if err := p.Grant(h, Read, "/patients/*[name() = $USER]", "patient"); err != nil {
		t.Fatal(err)
	}
	franckNode := node(t, d, "/patients/franck")
	robertNode := node(t, d, "/patients/robert")
	pmF, err := p.Evaluate(d, h, "franck")
	if err != nil {
		t.Fatal(err)
	}
	if !pmF.Has(franckNode, Read) || pmF.Has(robertNode, Read) {
		t.Error("$USER binding wrong for franck")
	}
	pmR, err := p.Evaluate(d, h, "robert")
	if err != nil {
		t.Fatal(err)
	}
	if !pmR.Has(robertNode, Read) || pmR.Has(franckNode, Read) {
		t.Error("$USER binding wrong for robert")
	}
}

func TestEvaluatePrivilegesIndependent(t *testing.T) {
	d, h := setup(t)
	p := New()
	if err := p.Grant(h, Read, "//service", "staff"); err != nil {
		t.Fatal(err)
	}
	if err := p.Revoke(h, Update, "//service", "staff"); err != nil {
		t.Fatal(err)
	}
	pm, err := p.Evaluate(d, h, "laporte")
	if err != nil {
		t.Fatal(err)
	}
	svc := node(t, d, "/patients/franck/service")
	if !pm.Has(svc, Read) {
		t.Error("read lost")
	}
	if pm.Has(svc, Update) || pm.Has(svc, Delete) || pm.Has(svc, Insert) || pm.Has(svc, Position) {
		t.Error("privileges bleed into each other")
	}
}

func TestPermsMetadata(t *testing.T) {
	d, h := setup(t)
	p := New()
	pm, err := p.Evaluate(d, h, "laporte")
	if err != nil {
		t.Fatal(err)
	}
	if pm.User() != "laporte" {
		t.Errorf("User() = %q", pm.User())
	}
	// A node created after the evaluation has an ordinal past the base
	// and holds nothing, though the staff read rule would address it.
	paper, err := PaperPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	if pm, err = paper.Evaluate(d, h, "laporte"); err != nil {
		t.Fatal(err)
	}
	next := d.Clone()
	late, err := next.AppendChild(next.RootElement(), xmltree.KindElement, "late")
	if err != nil {
		t.Fatal(err)
	}
	if late.Ord() < d.OrdLimit() || pm.Has(late, Read) {
		t.Errorf("node created after the evaluation: ordinal %d (limit %d), read %t", late.Ord(), d.OrdLimit(), pm.Has(late, Read))
	}
}

func TestCloneIndependence(t *testing.T) {
	d, h := setup(t)
	p := New()
	if err := p.Grant(h, Read, "//service", "staff"); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if err := c.Revoke(h, Read, "//service", "staff"); err != nil {
		t.Fatal(err)
	}
	pm, err := p.Evaluate(d, h, "laporte")
	if err != nil {
		t.Fatal(err)
	}
	if !pm.Has(node(t, d, "/patients/franck/service"), Read) {
		t.Error("mutating clone changed original policy")
	}
	if c.Len() != 2 || p.Len() != 1 {
		t.Errorf("lengths: clone %d, original %d", c.Len(), p.Len())
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Effect: Deny, Privilege: Read, Path: "//diagnosis/node()", Subject: "secretary", Priority: 11}
	want := "rule(deny,read,//diagnosis/node(),secretary,11)"
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestAddKeepsStrictAscendingOrder: the >= merge in Evaluate (and the
// shared-scan merge) relies on strictly ascending priorities — out-of-order
// Adds must end up sorted, duplicates rejected.
func TestAddKeepsStrictAscendingOrder(t *testing.T) {
	_, h := setup(t)
	p := New()
	for _, prio := range []int64{30, 10, 20, 5, 25} {
		err := p.Add(h, Rule{Effect: Accept, Privilege: Read, Path: "//a", Subject: "staff", Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.verifySorted(); err != nil {
		t.Fatalf("after out-of-order Adds: %v", err)
	}
	rules := p.Rules()
	for i := 1; i < len(rules); i++ {
		if rules[i-1].Priority >= rules[i].Priority {
			t.Fatalf("rules out of order at %d: %d then %d", i, rules[i-1].Priority, rules[i].Priority)
		}
	}
	err := p.Add(h, Rule{Effect: Deny, Privilege: Read, Path: "//a", Subject: "staff", Priority: 20})
	if !errors.Is(err, ErrDuplicatePriority) {
		t.Fatalf("duplicate priority: got %v, want ErrDuplicatePriority", err)
	}
}

// TestCloneRejectsCorruptedOrder: mutating the slice Rules() exposes (which
// its contract forbids) must make Clone panic instead of propagating a
// policy whose merges silently mis-resolve conflicts.
func TestCloneRejectsCorruptedOrder(t *testing.T) {
	_, h := setup(t)
	p := New()
	for _, prio := range []int64{10, 20} {
		if err := p.Add(h, Rule{Effect: Accept, Privilege: Read, Path: "//a", Subject: "staff", Priority: prio}); err != nil {
			t.Fatal(err)
		}
	}
	p.Rules()[0].Priority = 99 // contract violation
	defer func() {
		if recover() == nil {
			t.Fatal("Clone on corrupted rule order: want panic, got none")
		}
	}()
	p.Clone()
}
