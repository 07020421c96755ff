package policyanalysis

import (
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
)

// paperDoc parses the paper's Fig. 1 document (two patients), the
// differential oracle's scenario document for paper-policy fixtures.
func paperDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	const xml = `<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`
	doc, err := xmltree.ParseString(xml, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// repairsFor indexes a report's repairs by finding anchor.
func repairsFor(rr *RepairReport, code string, priority int64) []Repair {
	var out []Repair
	for _, r := range rr.Repairs {
		if r.Code == code && r.Priority == priority {
			out = append(out, r)
		}
	}
	return out
}

// TestRepairStrategies is the table-driven check over known-fault
// fixtures: each seeded fault must come back with at least one validated
// repair, the expected minimal repair ranked first.
func TestRepairStrategies(t *testing.T) {
	h := subject.PaperHierarchy()
	cases := []struct {
		name    string
		extra   []policy.Rule
		code    string
		anchor  int64
		want    string // Kind of the expected best repair's first edit
		wantSem bool   // expected SemanticsPreserving of the best repair
	}{
		{
			// @22 shadows deny @11 for secretary; deleting the dead deny
			// is the E10-validated semantics-preserving repair.
			name: "dead rule deleted",
			extra: []policy.Rule{{
				Effect: policy.Accept, Privilege: policy.Read,
				Path: "//diagnosis/node()", Subject: "secretary", Priority: 22,
			}},
			code: CodeDeadRule, anchor: 11,
			want: EditDeleteRule, wantSem: true,
		},
		{
			// The same fixture seen from the accept's side: the overlap
			// conflict repairs by deleting the reopening accept, which
			// restores the original matrix for secretaries — but the
			// original matrix here is the one WITH the accept, so deletion
			// is semantics-changing (it takes the regained read away).
			name: "conflict overlap",
			extra: []policy.Rule{{
				Effect: policy.Accept, Privilege: policy.Read,
				Path: "//diagnosis/node()", Subject: "secretary", Priority: 22,
			}},
			code: CodeConflictOverlap, anchor: 22,
			want: EditDeleteRule, wantSem: false,
		},
		{
			name: "insert invisible",
			extra: []policy.Rule{{
				Effect: policy.Accept, Privilege: policy.Insert,
				Path: "/billing//invoice", Subject: "patient", Priority: 23,
			}},
			code: CodeInsertInvisible, anchor: 23,
			// The grant's region is absent from the scenario document, so
			// deleting it changes no permission cell.
			want: EditDeleteRule, wantSem: true,
		},
		{
			name: "unselectable target",
			extra: []policy.Rule{{
				Effect: policy.Accept, Privilege: policy.Update,
				Path: "/billing//invoice", Subject: "patient", Priority: 24,
			}},
			code: CodeUnselectableTarget, anchor: 24,
			want: EditDeleteRule, wantSem: true,
		},
	}
	doc := paperDoc(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rules := append(paperRules(t, h), tc.extra...)
			rr := PlanRepairs(doc, h, rules)
			got := repairsFor(rr, tc.code, tc.anchor)
			if len(got) == 0 {
				t.Fatalf("no validated repair for %s@%d:\n%s", tc.code, tc.anchor, rr.Canonical().Text())
			}
			best := got[0]
			if !best.Validated {
				t.Fatal("offered repair not marked validated")
			}
			if len(best.Edits) == 0 || best.Edits[0].Kind != tc.want {
				t.Errorf("best repair edit = %+v, want kind %s", best.Edits, tc.want)
			}
			if !best.SemanticsChecked {
				t.Error("differential oracle did not run despite a document")
			}
			if best.SemanticsPreserving != tc.wantSem {
				t.Errorf("SemanticsPreserving = %v, want %v (%s)", best.SemanticsPreserving, tc.wantSem, best.Description)
			}
		})
	}
}

// TestRepairConflictAlternatives checks the conflict-overlap candidate
// space on a partial overlap: renumbering the accept below the deny must
// validate (the accept keeps its non-overlapping region, so it is not
// dead afterwards) alongside the plain deletion.
func TestRepairConflictAlternatives(t *testing.T) {
	h := subject.PaperHierarchy()
	rules := []policy.Rule{
		{Effect: policy.Deny, Privilege: policy.Read, Path: "//service", Subject: "secretary", Priority: 10},
		// Overlaps the deny on depth-3 service elements but also covers
		// the sibling diagnosis elements, so moving it below the deny
		// leaves it alive on the rest of its region.
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients/*/*", Subject: "secretary", Priority: 20},
	}
	rr := PlanRepairs(paperDoc(t), h, rules)
	kinds := map[string]bool{}
	for _, r := range repairsFor(rr, CodeConflictOverlap, 20) {
		for _, e := range r.Edits {
			kinds[e.Kind] = true
		}
	}
	if !kinds[EditDeleteRule] {
		t.Errorf("expected a delete-rule candidate, got kinds %v", kinds)
	}
	if !kinds[EditSetPriority] {
		t.Errorf("expected a set-priority candidate (free slot below the deny exists), got kinds %v", kinds)
	}
	// Against the full paper policy the same move is rejected: an accept
	// renumbered below an identical-path deny is dead (the deny shadows
	// it), and the engine must not offer a repair that trades one finding
	// for another.
	full := append(paperRules(t, h), policy.Rule{
		Effect: policy.Accept, Privilege: policy.Read,
		Path: "//diagnosis/node()", Subject: "secretary", Priority: 22,
	})
	rr = PlanRepairs(paperDoc(t), h, full)
	for _, r := range repairsFor(rr, CodeConflictOverlap, 22) {
		for _, e := range r.Edits {
			if e.Kind == EditSetPriority {
				t.Errorf("identical-path accept moved below its deny must be rejected as newly dead: %+v", r)
			}
		}
	}
}

// TestRepairPriorityCollision seeds a duplicate priority and expects the
// renumbering repair to validate and restore the total order.
func TestRepairPriorityCollision(t *testing.T) {
	h := subject.PaperHierarchy()
	rules := append(paperRules(t, h), policy.Rule{
		// Same priority as the paper's rule 10 (priority 19), disjoint
		// region and subject: a pure bookkeeping error.
		Effect: policy.Accept, Privilege: policy.Read,
		Path: "/patients", Subject: "doctor", Priority: 19,
	})
	rep := AnalyzeRules(h, rules)
	got := codesOf(rep)
	if len(got[CodePriorityCollision]) != 1 || got[CodePriorityCollision][0] != 19 {
		t.Fatalf("want priority-collision@19, got %v:\n%s", got, rep.Text())
	}
	if len(got[CodePriorityDisorder]) == 0 {
		t.Fatalf("appending priority 19 after 21 must also flag priority-disorder, got %v", got)
	}
	rr := PlanRepairs(paperDoc(t), h, rules)
	repairs := repairsFor(rr, CodePriorityCollision, 19)
	if len(repairs) == 0 {
		t.Fatalf("no validated repair for the collision:\n%s", rr.Canonical().Text())
	}
	best := repairs[0]
	if best.Edits[0].Kind != EditSetPriority {
		t.Errorf("best collision repair = %+v, want set-priority", best.Edits)
	}
	fixed := ApplyEdits(rules, best.Edits)
	after := AnalyzeRules(h, fixed)
	if cs := codesOf(after); len(cs[CodePriorityCollision]) != 0 || len(cs[CodePriorityDisorder]) != 0 {
		t.Fatalf("collision repair left ordering findings:\n%s", after.Text())
	}
}

// TestRepairPriorityDisorder: an out-of-order (but duplicate-free)
// snapshot repairs with the zero-edit re-sort.
func TestRepairPriorityDisorder(t *testing.T) {
	h := subject.PaperHierarchy()
	rules := paperRules(t, h)
	rules[0], rules[1] = rules[1], rules[0]
	rep := AnalyzeRules(h, rules)
	if got := codesOf(rep); len(got[CodePriorityDisorder]) != 1 {
		t.Fatalf("want one priority-disorder, got %v:\n%s", got, rep.Text())
	}
	rr := PlanRepairs(paperDoc(t), h, rules)
	repairs := repairsFor(rr, CodePriorityDisorder, rules[1].Priority)
	if len(repairs) != 1 {
		t.Fatalf("want the re-sort repair, got %d:\n%s", len(repairs), rr.Canonical().Text())
	}
	if repairs[0].Distance != 0 || !repairs[0].SemanticsPreserving {
		t.Errorf("re-sort must be distance 0 and semantics-preserving, got %+v", repairs[0])
	}
	fixed := ApplyEdits(rules, nil)
	if rep := AnalyzeRules(h, fixed); len(rep.Findings) != 0 {
		t.Fatalf("sorted paper policy must be clean:\n%s", rep.Text())
	}
}

// TestFixConvergesAndIsIdempotent is the repair-idempotence property on
// the broken fixture: Fix must leave zero repairable findings, and a
// second Fix over the result must apply nothing.
func TestFixConvergesAndIsIdempotent(t *testing.T) {
	h := subject.PaperHierarchy()
	rules := append(paperRules(t, h),
		policy.Rule{Effect: policy.Accept, Privilege: policy.Read, Path: "//diagnosis/node()", Subject: "secretary", Priority: 22},
		policy.Rule{Effect: policy.Accept, Privilege: policy.Insert, Path: "/billing//invoice", Subject: "patient", Priority: 23},
		policy.Rule{Effect: policy.Accept, Privilege: policy.Update, Path: "/billing//invoice", Subject: "patient", Priority: 24},
		policy.Rule{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients", Subject: "doctor", Priority: 19},
	)
	doc := paperDoc(t)
	fixed, applied, rr := Fix(doc, h, rules)
	if len(applied) == 0 {
		t.Fatal("Fix applied nothing on a broken policy")
	}
	for _, f := range rr.Findings {
		if RepairableCodes[f.Code] {
			t.Errorf("repairable finding survived Fix: %s@%d", f.Code, f.Priority)
		}
	}
	again, applied2, _ := Fix(doc, h, fixed)
	if len(applied2) != 0 {
		t.Errorf("second Fix applied %d repairs; want idempotence", len(applied2))
	}
	if len(again) != len(fixed) {
		t.Errorf("second Fix changed the rule count: %d -> %d", len(fixed), len(again))
	}
}

// TestFixCleanPolicyUntouched: a clean policy comes back unchanged.
func TestFixCleanPolicyUntouched(t *testing.T) {
	h := subject.PaperHierarchy()
	rules := paperRules(t, h)
	fixed, applied, rr := Fix(paperDoc(t), h, rules)
	if len(applied) != 0 || len(rr.Findings) != 0 {
		t.Fatalf("clean policy: applied=%d findings=%d", len(applied), len(rr.Findings))
	}
	if len(fixed) != len(rules) {
		t.Fatalf("rule count changed: %d -> %d", len(rules), len(fixed))
	}
	for i := range fixed {
		if fixed[i].String() != rules[i].String() {
			t.Errorf("rule %d changed: %s -> %s", i, rules[i].String(), fixed[i].String())
		}
	}
}

// TestApplyEditsMixedKinds covers index-addressed application with a
// delete in the mix, and the normalizing sort.
func TestApplyEditsMixedKinds(t *testing.T) {
	h := subject.PaperHierarchy()
	rules := paperRules(t, h)
	out := ApplyEdits(rules, []Edit{
		{Kind: EditDeleteRule, Index: 0},
		{Kind: EditFlipEffect, Index: 1, NewEffect: policy.Accept},
		{Kind: EditSetPriority, Index: 2, NewPriority: 5},
		{Kind: EditNarrowPath, Index: 3, NewPath: "/patients/franck"},
	})
	if len(out) != len(rules)-1 {
		t.Fatalf("len = %d, want %d", len(out), len(rules)-1)
	}
	if out[0].Priority != 5 || out[0].Privilege != policy.Position {
		t.Errorf("renumbered rule must sort first: %+v", out[0])
	}
	if out[1].Effect != policy.Accept || out[1].Privilege != policy.Read {
		t.Errorf("flip lost: %+v", out[1])
	}
	if out[2].Path != "/patients/franck" {
		t.Errorf("narrow lost: %+v", out[2])
	}
	// Input slice untouched.
	if rules[2].Priority != 12 || rules[1].Effect != policy.Deny {
		t.Error("ApplyEdits mutated its input")
	}
}

// TestSplitTopLevelUnion pins the union splitter against predicates,
// parens and literals containing '|'.
func TestSplitTopLevelUnion(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"/a/b", []string{"/a/b"}},
		{"/a | //b", []string{"/a", "//b"}},
		{"/a[x = 'p|q'] | /b", []string{"/a[x = 'p|q']", "/b"}},
		{"/a[u | v] | /b", []string{"/a[u | v]", "/b"}},
	}
	for _, tc := range cases {
		got := splitTopLevelUnion(tc.in)
		if strings.Join(got, "§") != strings.Join(tc.want, "§") {
			t.Errorf("split(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRepairNarrowPath: a union accept overlapping a deny on only one
// branch must offer the narrow-path repair keeping the disjoint branch.
func TestRepairNarrowPath(t *testing.T) {
	h := subject.PaperHierarchy()
	rules := append(paperRules(t, h), policy.Rule{
		// The /patients branch is provably disjoint from //diagnosis/node()
		// (too shallow to reach under a diagnosis element); the other
		// branch is the reopening overlap.
		Effect: policy.Accept, Privilege: policy.Read,
		Path: "//diagnosis/node() | /patients", Subject: "secretary", Priority: 22,
	})
	rr := PlanRepairs(paperDoc(t), h, rules)
	var narrow *Repair
	for _, r := range repairsFor(rr, CodeConflictOverlap, 22) {
		if r.Edits[0].Kind == EditNarrowPath {
			cp := r
			narrow = &cp
		}
	}
	if narrow == nil {
		t.Fatalf("no narrow-path candidate offered:\n%s", rr.Canonical().Text())
	}
	if got := narrow.Edits[0].NewPath; got != "/patients" {
		t.Errorf("narrowed path = %q, want the branch disjoint from deny @11", got)
	}
}

// TestRepairMirrorMatchesEvaluate pins the session's mirror evaluator
// against policy.Evaluate on a duplicate-free policy: the differential
// oracle is only as good as this agreement.
func TestRepairMirrorMatchesEvaluate(t *testing.T) {
	h := subject.PaperHierarchy()
	pol, err := policy.PaperPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	doc := paperDoc(t)
	rules := paperRules(t, h)
	s := &repairSession{doc: doc, h: h, rules: rules, memo: newMemo(h), nodes: map[string][]string{}, base: map[string]map[string]uint8{}}
	for _, u := range h.Users() {
		pm, err := pol.Evaluate(doc, h, u)
		if err != nil {
			t.Fatal(err)
		}
		masks := s.evalMasks(rules, u)
		for _, n := range doc.Nodes() {
			id := n.ID().String()
			for _, priv := range policy.Privileges {
				want := pm.Has(n, priv)
				got := masks[id]&(1<<uint(priv)) != 0
				if want != got {
					t.Fatalf("mirror disagrees with Evaluate: user %s node %s priv %s: evaluate=%v mirror=%v",
						u, id, priv, want, got)
				}
			}
		}
	}
}
