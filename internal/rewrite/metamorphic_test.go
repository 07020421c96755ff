// Metamorphic properties of the classifier and the plan answers derived
// from it (planAnswer) — relations that must hold
// between answers without knowing any answer's expected value:
//
//  1. idempotence: classification is a fixpoint. Re-planning the same
//     query (on the same program or a freshly built engine) yields the same
//     classification and the identical answer.
//  2. full privilege: for a profile that reads everything, the plan
//     answer equals the raw query over the unfiltered source document.
//  3. narrowing: appending deny rules (the shape PR 8's repair engine
//     emits) never grows a plan answer's node-set, for positive
//     label-test-free queries.
package rewrite_test

import (
	"fmt"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/rewrite"
	"securexml/internal/subject"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// metaPerms derives user's permissions on d under p.
func metaPerms(t *testing.T, d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, user string) *policy.Perms {
	t.Helper()
	pm, err := p.Evaluate(d, h, user)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// metaAnswer evaluates q's plan for user and renders it, failing the test
// on any error.
func metaAnswer(t *testing.T, eng *rewrite.Engine, root *xmltree.Node, pm *policy.Perms, user, q string) []string {
	t.Helper()
	rows, err := planAnswer(eng.ProgramFor(user), root, pm, user, q)
	if err != nil {
		t.Fatalf("user %s query %s: %v", user, q, err)
	}
	return rows
}

// TestRewriteIdempotent: same policy, same query — same plan mode, same
// answer, whether the plan is re-planned on the same program or rebuilt
// from scratch on a second engine.
func TestRewriteIdempotent(t *testing.T) {
	for _, kind := range []string{"paper", "scaled"} {
		d, h, p := roEnv(t, 1, kind)
		e1 := rewrite.NewEngine(p, h)
		e2 := rewrite.NewEngine(p, h)
		for _, u := range h.Users() {
			pg1, pg2 := e1.ProgramFor(u), e2.ProgramFor(u)
			pm := metaPerms(t, d, h, p, u)
			for _, q := range roQueries {
				pl1, err := pg1.PlanFor(q)
				if err != nil {
					t.Fatal(err)
				}
				pl1again, err := pg1.PlanFor(q)
				if err != nil {
					t.Fatal(err)
				}
				if pl1again.Mode != pl1.Mode {
					t.Errorf("%s user %s query %s: mode %v vs %v on re-planning", kind, u, q, pl1.Mode, pl1again.Mode)
				}
				pl2, err := pg2.PlanFor(q)
				if err != nil {
					t.Fatal(err)
				}
				if pl1.Mode != pl2.Mode {
					t.Errorf("%s user %s query %s: mode %v vs %v across engines", kind, u, q, pl1.Mode, pl2.Mode)
				}
				a1 := metaAnswer(t, e1, d.Root(), pm, u, q)
				a2 := metaAnswer(t, e2, d.Root(), pm, u, q)
				if fmt.Sprint(a1) != fmt.Sprint(a2) {
					t.Errorf("%s user %s query %s:\n first:  %v\n second: %v", kind, u, q, a1, a2)
				}
			}
		}
	}
}

// fullReadPolicy grants read on every node — elements, text, attributes and
// attribute values — to the given subjects.
func fullReadPolicy(t *testing.T, h *subject.Hierarchy, subjects ...string) *policy.Policy {
	t.Helper()
	p := policy.New()
	prio := int64(10)
	for _, subj := range subjects {
		for _, path := range []string{
			"/descendant-or-self::node()",
			"//@*",
			"//@*/descendant-or-self::node()",
		} {
			err := p.Add(h, policy.Rule{
				Effect: policy.Accept, Privilege: policy.Read,
				Path: path, Subject: subj, Priority: prio,
			})
			if err != nil {
				t.Fatal(err)
			}
			prio++
		}
	}
	return p
}

// TestRewriteFullPrivilegeIdentity: under a policy that grants read on
// everything, the plan answer of every query equals the raw query over
// the unfiltered source document — the enforcement layer vanishes.
func TestRewriteFullPrivilegeIdentity(t *testing.T) {
	d, h, _ := roEnv(t, 2, "paper")
	p := fullReadPolicy(t, h, "staff", "patient")
	eng := rewrite.NewEngine(p, h)
	for _, u := range []string{"laporte", "beaufort", "p0"} {
		pm := metaPerms(t, d, h, p, u)
		for _, q := range append(append([]string{}, roQueries...), roValueQueries...) {
			got := metaAnswer(t, eng, d.Root(), pm, u, q)
			c, err := xpath.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			val, err := c.Eval(d.Root(), xpath.Vars{"USER": xpath.String(u)})
			if err != nil {
				t.Fatal(err)
			}
			want := renderValue(val, nil)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("user %s query %s:\n plan: %v\n raw:  %v", u, q, got, want)
			}
		}
	}
}

// TestTransparencyStaysConservative pins the classifier's attribute
// frontier: even the full-read policy is not classified PlanTransparent,
// because transparency quantifies over all root-to-node words — including
// attribute-descendant words no exact pattern family can cover — so the
// identity above is reached through filtered evaluation, never by skipping
// the filter on a hunch.
func TestTransparencyStaysConservative(t *testing.T) {
	_, h, _ := roEnv(t, 1, "paper")
	p := fullReadPolicy(t, h, "staff")
	if rewrite.NewEngine(p, h).ProgramFor("laporte").Transparent() {
		t.Error("full-read profile classified transparent; the word search must keep covering attribute-descendant words")
	}
}

// narrowQueries are positive (no not(), no RESTRICTED label tests)
// queries, for which hiding or restricting more nodes can only shrink the
// answer. Label tests on RESTRICTED and negated predicates are excluded by
// design: substitution can legitimately grow those answers.
var narrowQueries = []string{
	"/patients",
	"/patients/node()",
	"//node()",
	"//text()",
	"/patients/descendant-or-self::node()",
	"//record",
	"//diagnosis",
	"//service/text()",
	"/patients/*[name() = $USER]",
}

// metaIDs extracts the source identifiers of q's plan answer for user.
func metaIDs(t *testing.T, eng *rewrite.Engine, root *xmltree.Node, pm *policy.Perms, user, q string) map[string]bool {
	t.Helper()
	pl, err := eng.ProgramFor(user).PlanFor(q)
	if err != nil {
		t.Fatal(err)
	}
	var sec *xpath.Security
	switch pl.Mode {
	case rewrite.PlanEmpty:
		return map[string]bool{}
	case rewrite.PlanFiltered:
		sec = qfilter.ForPerms(pm)
	}
	ns, err := pl.Compiled().SelectFiltered(root, xpath.Vars{"USER": xpath.String(user)}, sec)
	if err != nil {
		t.Fatalf("user %s query %s: %v", user, q, err)
	}
	ids := make(map[string]bool, len(ns))
	for _, n := range ns {
		ids[n.ID().String()] = true
	}
	return ids
}

// TestRewriteNarrowingMonotonic: denying more never shows more. For each
// base policy, append high-priority deny read+position rules (the repair
// engine's narrowing shape) and check every plan answer's node-set is
// contained in the base answer's.
func TestRewriteNarrowingMonotonic(t *testing.T) {
	denyPaths := []string{"//diagnosis", "/patients/*/record", "//service"}
	for _, seed := range roSeeds {
		d, h, base := roEnv(t, seed, "paper")
		narrowed, err := workload.HospitalPolicy(h)
		if err != nil {
			t.Fatal(err)
		}
		prio := int64(900)
		denyPath := denyPaths[int(seed)%len(denyPaths)]
		for _, subj := range []string{"staff", "patient"} {
			for _, priv := range []policy.Privilege{policy.Read, policy.Position} {
				err := narrowed.Add(h, policy.Rule{
					Effect: policy.Deny, Privilege: priv,
					Path: denyPath, Subject: subj, Priority: prio,
				})
				if err != nil {
					t.Fatal(err)
				}
				prio++
			}
		}
		baseEng := rewrite.NewEngine(base, h)
		narrowEng := rewrite.NewEngine(narrowed, h)
		for _, u := range h.Users() {
			basePerms, narrowPerms := metaPerms(t, d, h, base, u), metaPerms(t, d, h, narrowed, u)
			for _, q := range narrowQueries {
				before := metaIDs(t, baseEng, d.Root(), basePerms, u, q)
				after := metaIDs(t, narrowEng, d.Root(), narrowPerms, u, q)
				for id := range after {
					if !before[id] {
						t.Errorf("seed %d deny %s user %s query %s: node %s appears only after narrowing",
							seed, denyPath, u, q, id)
					}
				}
			}
		}
	}
}
