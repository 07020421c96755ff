// Classification tables: how rule shapes enter a profile and which query
// shapes each plan mode classifies. White-box (package rewrite) so the
// PlanTransparent plan — unreachable through the conservative classifier,
// see Program.checkTransparent — stays covered.
package rewrite

import (
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
)

func testHierarchy(t *testing.T) *subject.Hierarchy {
	t.Helper()
	h := subject.NewHierarchy()
	for _, err := range []error{
		h.AddRole("staff"),
		h.AddRole("doctor", "staff"),
		h.AddUser("laporte", "doctor"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// singleRulePolicy wraps one accept-read rule for staff.
func singleRulePolicy(t *testing.T, h *subject.Hierarchy, path string) *policy.Policy {
	t.Helper()
	p := policy.New()
	err := p.Add(h, policy.Rule{
		Effect: policy.Accept, Privilege: policy.Read,
		Path: path, Subject: "staff", Priority: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRuleFragmentTable: every rule shape — inside or outside the
// chain-only xpath.NodeMatcher fragment — yields a program, and the
// classifier reads each rule through its pattern over-approximation: a
// query for the rule's own path is never statically empty, while a query
// for an element no downward rule can reach is, unless a reverse or
// sideways axis makes the rule's pattern universal.
func TestRuleFragmentTable(t *testing.T) {
	cases := []struct {
		path       string
		otherEmpty bool // is /other statically empty?
	}{
		// Chain-only: rooted child/attribute/descendant chains with
		// self-contained predicates.
		{"/patients", true},
		{"/patients/*/record", true},
		{"//service", true},
		{"//diagnosis/node()", true},
		{"//text()", true},
		{"//@*", true},
		{"/patients/@id", true},
		{"//record[starts-with(name(), 'rec')]", true},
		{"/patients/*[name() = $USER]", true},
		{"/patients/*[name() = $USER]/descendant-or-self::node()", true},
		{"/descendant-or-self::node()", false},
		{"/patients/self::node()", true},
		// Positional and location-path predicates only filter, so their
		// patterns stay downward.
		{"/patients/*[1]", true},
		{"/patients/*[last()]", true},
		{"/patients/*[position() < 2]", true},
		{"//record[note]", true},
		{"/patients/*[name() = $USER]/record[note]", true},
		// Reverse and sideways axes can land anywhere: universal pattern.
		{"//diagnosis/..", false},
		{"//diagnosis/following-sibling::*", false},
		{"//service/preceding-sibling::*", false},
		{"//diagnosis/ancestor::*", false},
	}
	h := testHierarchy(t)
	for _, tc := range cases {
		pg := NewEngine(singleRulePolicy(t, h, tc.path), h).ProgramFor("laporte")
		if rules := pg.Rules(); len(rules) != 1 {
			t.Errorf("rule %s: profile %v, want the one rule", tc.path, rules)
		}
		own, err := pg.PlanFor(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if own.Mode == PlanEmpty {
			t.Errorf("rule %s: its own path classified empty", tc.path)
		}
		pl, err := pg.PlanFor("/other")
		if err != nil {
			t.Fatal(err)
		}
		if (pl.Mode == PlanEmpty) != tc.otherEmpty {
			t.Errorf("rule %s: /other classified %v, want empty=%v", tc.path, pl.Mode, tc.otherEmpty)
		}
	}
}

// TestOutOfFragmentRuleKeepsProfile: a read or position rule outside the
// chain-only fragment joins the profile and widens its visibility like any
// other accept rule; a write rule is ignored entirely.
func TestOutOfFragmentRuleKeepsProfile(t *testing.T) {
	h := testHierarchy(t)
	for _, tc := range []struct {
		priv      policy.Privilege
		rules     int
		wantEmpty bool // is /patients/p0 statically empty?
	}{
		{policy.Read, 2, false},
		{policy.Position, 2, false},
		{policy.Insert, 1, true},
		{policy.Update, 1, true},
		{policy.Delete, 1, true},
	} {
		p := singleRulePolicy(t, h, "//service")
		err := p.Add(h, policy.Rule{
			Effect: policy.Accept, Privilege: tc.priv,
			Path: "/patients/*[1]", Subject: "doctor", Priority: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		pg := NewEngine(p, h).ProgramFor("laporte")
		if got := len(pg.Rules()); got != tc.rules {
			t.Errorf("positional %s rule: profile of %d rules, want %d", tc.priv, got, tc.rules)
		}
		pl, err := pg.PlanFor("/patients/p0")
		if err != nil {
			t.Fatal(err)
		}
		if (pl.Mode == PlanEmpty) != tc.wantEmpty {
			t.Errorf("positional %s rule: /patients/p0 classified %v, want empty=%v", tc.priv, pl.Mode, tc.wantEmpty)
		}
	}
}

// TestPlanModeTable classifies query shapes against a policy whose only
// grant is read on //service.
func TestPlanModeTable(t *testing.T) {
	h := testHierarchy(t)
	pg := NewEngine(singleRulePolicy(t, h, "//service"), h).ProgramFor("laporte")
	cases := []struct {
		query string
		mode  PlanMode
	}{
		// No word of these patterns ends in "service": statically empty.
		{"//diagnosis", PlanEmpty},
		{"/patients", PlanEmpty},
		{"//diagnosis/text()", PlanEmpty},
		// An inexact query pattern can still prove emptiness — both sides
		// over-approximate, so an empty intersection is conclusive.
		{"//diagnosis[name() = $USER]", PlanEmpty},
		{"/other[$undefined]/diagnosis", PlanEmpty},
		// A predicate that could run on a visible node might fail at
		// runtime (an undefined variable, a type error), so the query
		// must be evaluated even when its answer is empty.
		{"/patients/*[name() = $USER]/record", PlanFiltered},
		{"/patients/*[$undefined]/diagnosis", PlanFiltered},
		// These could reach a service word (or the root, which is always
		// visible), so they need the filter.
		{"//service", PlanFiltered},
		{"/patients/*/service", PlanFiltered},
		{"/", PlanFiltered},
		{"//node()", PlanFiltered},
		// Function calls and reverse axes have no downward shape: the
		// universal over-approximation shares words with everything.
		{"count(//diagnosis)", PlanFiltered},
		{"//diagnosis/..", PlanFiltered},
		// A view shows position-only service nodes as RESTRICTED, so a
		// RESTRICTED name test can match them.
		{"//RESTRICTED", PlanFiltered},
		{"/patients/RESTRICTED/RESTRICTED", PlanFiltered},
		{"/patients/RESTRICTED/text()", PlanEmpty},
	}
	for _, tc := range cases {
		pl, err := pg.PlanFor(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if pl.Mode != tc.mode {
			t.Errorf("query %s: mode %v, want %v", tc.query, pl.Mode, tc.mode)
		}
	}
}

// TestPlanEmptyWithoutAccepts: a profile with only deny rules can see
// nothing below the root, so every non-root path query is statically empty.
func TestPlanEmptyWithoutAccepts(t *testing.T) {
	h := testHierarchy(t)
	p := policy.New()
	err := p.Add(h, policy.Rule{
		Effect: policy.Deny, Privilege: policy.Read,
		Path: "//service", Subject: "staff", Priority: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pg := NewEngine(p, h).ProgramFor("laporte")
	for _, q := range []string{"//service", "/patients", "//node()"} {
		pl, err := pg.PlanFor(q)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Mode != PlanEmpty {
			t.Errorf("query %s: mode %v, want empty (no accept rules)", q, pl.Mode)
		}
	}
}

// TestPlanTransparentExecution covers the transparent plan directly: the
// classifier never produces it (attribute-descendant words are uncovered
// by any exact pattern family, see checkTransparent), but the plan must
// still carry the raw query if it ever fires.
func TestPlanTransparentExecution(t *testing.T) {
	d, err := xmltree.ParseString("<patients><p0><service>oncology</service></p0></patients>", xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pg := &Program{transparent: true}
	pl, err := pg.PlanFor("//service")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Mode != PlanTransparent {
		t.Fatalf("mode %v, want transparent", pl.Mode)
	}
	ns, err := pl.Compiled().Select(d.Root(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].Label() != "service" {
		t.Fatalf("transparent select: got %d nodes, want the raw answer", len(ns))
	}
	if !pg.Transparent() {
		t.Error("Transparent() = false on a transparent program")
	}
}

// TestEnumLabels pins the plan modes' diagnostic strings.
func TestEnumLabels(t *testing.T) {
	modes := map[PlanMode]string{
		PlanFiltered: "filtered", PlanTransparent: "transparent",
		PlanEmpty: "empty", PlanMode(99): "unknown",
	}
	for m, want := range modes {
		if m.String() != want {
			t.Errorf("mode %d: %q, want %q", int(m), m.String(), want)
		}
	}
}
