// Fragment-classification tables: which rule shapes compile to a rewrite
// program and which force a counted fallback, and which query shapes each
// plan mode classifies. White-box (package rewrite) so the PlanTransparent
// execution path — unreachable through the conservative classifier, see
// Program.checkTransparent — stays covered.
package rewrite

import (
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
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

// TestRuleFragmentTable: every supported rule shape yields a program; every
// unsupported one yields the rule_fragment fallback. The boundary is the
// chain-only NodeMatcher fragment — membership decidable from the
// root-to-node chain alone.
func TestRuleFragmentTable(t *testing.T) {
	cases := []struct {
		path       string
		rewritable bool
	}{
		// Supported: rooted child/attribute/descendant chains with
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
		{"/descendant-or-self::node()", true},
		{"/patients/self::node()", true},
		// Unsupported: positional and location-path predicates need sibling
		// or subtree context beyond the chain; reverse and sideways axes
		// leave the downward fragment entirely.
		{"/patients/*[1]", false},
		{"/patients/*[last()]", false},
		{"/patients/*[position() < 2]", false},
		{"//record[note]", false},
		{"/patients/*[name() = $USER]/record[note]", false},
		{"//diagnosis/..", false},
		{"//diagnosis/following-sibling::*", false},
		{"//service/preceding-sibling::*", false},
		{"//diagnosis/ancestor::*", false},
	}
	h := testHierarchy(t)
	for _, tc := range cases {
		eng := NewEngine(singleRulePolicy(t, h, tc.path), h)
		pg, reason := eng.ProgramFor("laporte")
		if tc.rewritable && pg == nil {
			t.Errorf("rule %s: fell back (%v), want rewritable", tc.path, reason)
		}
		if !tc.rewritable {
			if pg != nil {
				t.Errorf("rule %s: compiled to a program, want rule_fragment fallback", tc.path)
			} else if reason != ReasonRuleFragment {
				t.Errorf("rule %s: reason %v, want %v", tc.path, reason, ReasonRuleFragment)
			}
		}
	}
}

// TestOneBadRulePoisonsProfile: a single out-of-fragment read rule makes
// the whole profile fall back — a partial axiom-14 merge would be unsound —
// while the same rule on a write privilege is ignored entirely.
func TestOneBadRulePoisonsProfile(t *testing.T) {
	h := testHierarchy(t)
	for _, tc := range []struct {
		priv       policy.Privilege
		rewritable bool
	}{
		{policy.Read, false},
		{policy.Position, false},
		{policy.Insert, true},
		{policy.Update, true},
		{policy.Delete, true},
	} {
		p := singleRulePolicy(t, h, "//service")
		err := p.Add(h, policy.Rule{
			Effect: policy.Accept, Privilege: tc.priv,
			Path: "/patients/*[1]", Subject: "doctor", Priority: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		pg, reason := NewEngine(p, h).ProgramFor("laporte")
		if tc.rewritable && pg == nil {
			t.Errorf("positional %s rule: fell back (%v), want rewritable (write rules are irrelevant to reads)",
				tc.priv, reason)
		}
		if !tc.rewritable && pg != nil {
			t.Errorf("positional %s rule: compiled to a program, want whole-profile fallback", tc.priv)
		}
	}
}

// TestPlanModeTable classifies query shapes against a policy whose only
// grant is read on //service.
func TestPlanModeTable(t *testing.T) {
	h := testHierarchy(t)
	eng := NewEngine(singleRulePolicy(t, h, "//service"), h)
	pg, _ := eng.ProgramFor("laporte")
	if pg == nil {
		t.Fatal("chain-only profile fell back")
	}
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
		{"/patients/*[name() = $USER]/record", PlanEmpty},
		// These could reach a service word (or the root, which is always
		// visible), so they must run guarded.
		{"//service", PlanGuarded},
		{"/patients/*/service", PlanGuarded},
		{"/", PlanGuarded},
		{"//node()", PlanGuarded},
		// Function calls and reverse axes have no downward shape: the
		// universal over-approximation shares words with everything.
		{"count(//diagnosis)", PlanGuarded},
		{"//diagnosis/..", PlanGuarded},
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
	pg, _ := NewEngine(p, h).ProgramFor("laporte")
	if pg == nil {
		t.Fatal("deny-only profile fell back")
	}
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

// TestPlanTransparentExecution covers the transparent execution path
// directly: the classifier never produces it (attribute-descendant words
// are uncovered by any exact pattern family, see checkTransparent), but
// the plan machinery must still serve it correctly if it ever fires.
func TestPlanTransparentExecution(t *testing.T) {
	d, err := xmltree.ParseString("<patients><p0><service>oncology</service></p0></patients>", xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pg := &Program{transparent: true, plans: make(map[string]*Plan)}
	pl, err := pg.PlanFor("//service")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Mode != PlanTransparent {
		t.Fatalf("mode %v, want transparent", pl.Mode)
	}
	ns, err := pl.Select(d.Root(), nil, nil)
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

// TestProgramSharing: users with the same applicable rules share one
// program (and so one plan cache) — $USER stays a runtime variable.
func TestProgramSharing(t *testing.T) {
	h := subject.NewHierarchy()
	for _, err := range []error{
		h.AddRole("patient"),
		h.AddUser("p0", "patient"),
		h.AddUser("p1", "patient"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	p := policy.New()
	err := p.Add(h, policy.Rule{
		Effect: policy.Accept, Privilege: policy.Read,
		Path: "/patients/*[name() = $USER]/descendant-or-self::node()", Subject: "patient", Priority: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, h)
	pg0, _ := eng.ProgramFor("p0")
	pg1, _ := eng.ProgramFor("p1")
	if pg0 == nil || pg1 == nil {
		t.Fatal("patient profile fell back")
	}
	if pg0 != pg1 {
		t.Error("p0 and p1 hold distinct programs; profiles must be shared")
	}
	if rules := pg0.Rules(); len(rules) != 1 {
		t.Errorf("Rules() = %v, want the one patient rule", rules)
	}
}

// TestFallbackCounters: CountFallback moves exactly the per-reason counter;
// ReasonNone and out-of-range values move nothing.
func TestFallbackCounters(t *testing.T) {
	frag := obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "rule_fragment")
	evalErr := obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "eval_error")
	nsVal := obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "nodeset_value")
	f0, e0, n0 := frag.Value(), evalErr.Value(), nsVal.Value()
	CountFallback(ReasonRuleFragment)
	CountFallback(ReasonNodeSetValue)
	CountFallback(ReasonNone)
	CountFallback(Reason(99))
	if d := frag.Value() - f0; d != 1 {
		t.Errorf("rule_fragment moved by %d, want 1", d)
	}
	if d := evalErr.Value() - e0; d != 0 {
		t.Errorf("eval_error moved by %d, want 0", d)
	}
	if d := nsVal.Value() - n0; d != 1 {
		t.Errorf("nodeset_value moved by %d, want 1", d)
	}
}

// TestEnumLabels pins the telemetry labels and diagnostic strings.
func TestEnumLabels(t *testing.T) {
	reasons := map[Reason]string{
		ReasonNone: "none", ReasonRuleFragment: "rule_fragment",
		ReasonEvalError: "eval_error", ReasonNodeSetValue: "nodeset_value",
		Reason(99): "unknown",
	}
	for r, want := range reasons {
		if r.String() != want || r.MetricLabel() != want {
			t.Errorf("reason %d: %q/%q, want %q", int(r), r.String(), r.MetricLabel(), want)
		}
	}
	modes := map[PlanMode]string{
		PlanGuarded: "guarded", PlanTransparent: "transparent",
		PlanEmpty: "empty", PlanMode(99): "unknown",
	}
	for m, want := range modes {
		if m.String() != want {
			t.Errorf("mode %d: %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestGuardedSecurityRestriction spot-checks the chain-derived filter
// itself: position-only nodes are visible as RESTRICTED, unreadable
// subtrees disappear, and the document node survives everything (axioms
// 15–17 without a view).
func TestGuardedSecurityRestriction(t *testing.T) {
	d, err := xmltree.ParseString(
		"<patients><p0><service>oncology</service><diagnosis>flu</diagnosis></p0></patients>",
		xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := testHierarchy(t)
	p := policy.New()
	for i, r := range []policy.Rule{
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/descendant-or-self::node()", Subject: "staff"},
		{Effect: policy.Deny, Privilege: policy.Read, Path: "//service", Subject: "staff"},
		{Effect: policy.Accept, Privilege: policy.Position, Path: "//service", Subject: "staff"},
		{Effect: policy.Deny, Privilege: policy.Read, Path: "//diagnosis", Subject: "staff"},
		{Effect: policy.Deny, Privilege: policy.Position, Path: "//diagnosis", Subject: "staff"},
	} {
		r.Priority = int64(10 + i)
		if err := p.Add(h, r); err != nil {
			t.Fatal(err)
		}
	}
	pg, _ := NewEngine(p, h).ProgramFor("laporte")
	if pg == nil {
		t.Fatal("profile fell back")
	}
	sec, st := pg.Security(xpath.Vars{"USER": xpath.String("laporte")})
	var restricted, hidden, kept int
	for _, n := range d.Nodes() {
		switch {
		case !sec.IsVisible(n):
			hidden++
		case sec.EffectiveLabel(n) == xmltree.Restricted:
			restricted++
		default:
			kept++
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	// Per-node masks: service is position-only (RESTRICTED), the diagnosis
	// element is hidden; its text child is readable *per-node* (only the
	// blanket accept matches it) — hereditary hiding is the evaluator's
	// job, which never descends below an invisible node.
	if restricted != 1 || hidden != 1 || kept != 5 {
		t.Errorf("restricted=%d hidden=%d kept=%d, want 1/1/5", restricted, hidden, kept)
	}
	if !sec.IsVisible(d.Root()) || sec.EffectiveLabel(d.Root()) != d.Root().Label() {
		t.Error("document node must stay visible with its own label")
	}
	// Hereditary hiding through traversal: the readable text below the
	// hidden diagnosis element is unreachable by a guarded evaluation.
	pl, err := pg.PlanFor("//diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	sec2, st2 := pg.Security(xpath.Vars{"USER": xpath.String("laporte")})
	ns, err := pl.Select(d.Root(), xpath.Vars{"USER": xpath.String("laporte")}, sec2)
	if err != nil || st2.Err() != nil {
		t.Fatalf("guarded select: %v / %v", err, st2.Err())
	}
	if len(ns) != 0 {
		t.Errorf("text below a hidden element leaked: %d nodes", len(ns))
	}
}

// TestSecurityMatcherError: a matcher error (unbound $USER) reports through
// the evaluation's EvalState, and a Security built with $USER bound is
// unaffected by it.
func TestSecurityMatcherError(t *testing.T) {
	d, err := xmltree.ParseString(
		"<patients><p0><service>oncology</service><diagnosis>flu</diagnosis></p0></patients>",
		xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := testHierarchy(t)
	p := policy.New()
	if err := p.Add(h, policy.Rule{
		Effect: policy.Accept, Privilege: policy.Read,
		Path: "/patients/*[name() = $USER]//node()", Subject: "staff", Priority: 10,
	}); err != nil {
		t.Fatal(err)
	}
	pg, reason := NewEngine(p, h).ProgramFor("laporte")
	if pg == nil {
		t.Fatalf("profile fell back: %v", reason)
	}
	var svc *xmltree.Node
	for _, n := range d.Nodes() {
		if n.Label() == "service" {
			svc = n
		}
	}
	if svc == nil {
		t.Fatal("no service node")
	}
	sec, st := pg.Security(xpath.Vars{})
	sec.IsVisible(svc)
	if st.Err() == nil {
		t.Fatal("unbound $USER should surface a matcher error")
	}
	sec2, st2 := pg.Security(xpath.Vars{"USER": xpath.String("p0")})
	if !sec2.IsVisible(svc) {
		t.Fatal("p0 should see the contents of its own subtree")
	}
	if err := st2.Err(); err != nil {
		t.Fatal(err)
	}
}
