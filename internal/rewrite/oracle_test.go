// Differential oracle for the static read classifier: for every user and
// every query of a corpus spanning downward paths, predicates, positional
// tests, reverse and sideways axes, the answer the query's plan denotes
// must equal the same query over that user's materialized view
// (view.Materialize, axioms 15–17) node-for-node — source identifiers,
// effective labels, view paths and filtered string-values:
//
//   - PlanEmpty: the view answer is empty;
//   - PlanTransparent: the raw query over the source equals the view;
//   - PlanFiltered: the query over the source under
//     qfilter.ForPerms(policy.Evaluate(...)) — the session read path —
//     equals the view.
//
// Policies: the paper policy, the scaled policy, seeded random 4-quadrant
// policies and the "gate" policy of explicit rules with positional
// predicates, reverse and sideways axes and name-only grants; documents
// are mutated by seeded workload.OpStream sequences. The engine is
// deliberately built once per run and never rebuilt: its plans are
// document-independent, so surviving sixty mutations unchanged is part of
// the property under test. On mismatch the op sequence is greedily
// minimized, PR 4/5 style.
//
// External test package: the oracle drives the engine purely through its
// exported surface.
package rewrite_test

import (
	"fmt"
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/rewrite"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

const (
	roPatients   = 6
	roRecords    = 2
	roOps        = 60
	roCheckEvery = 10
)

var (
	roSeeds = []int64{1, 2, 3}
	roKinds = []string{"paper", "scaled", "random", "gate"}
)

// roQueries covers names, wildcards, text tests, predicates, positional
// predicates, reverse and sideways axes, $USER dependence — including
// RESTRICTED-label node tests, which only an enforcement-aware evaluation
// can answer like the view does.
var roQueries = []string{
	"/patients",
	"/patients/*",
	"/patients/node()",
	"//diagnosis",
	"//diagnosis/text()",
	"//service/text()",
	"/patients/p0",
	"/patients/RESTRICTED",
	"/patients/RESTRICTED/service",
	"/patients/RESTRICTED/RESTRICTED",
	"/patients/p0/RESTRICTED",
	"//RESTRICTED",
	"//*[text() = 'RESTRICTED']",
	"//*[service = 'cardiology']",
	"/patients/*[2]",
	"/patients/*[last()]",
	"//diagnosis/..",
	"//text()",
	"//record",
	"//record/node()",
	"//note",
	"/patients/*[name() = $USER]",
	"/patients/*[name() = $USER]/descendant-or-self::node()",
	"/patients/descendant-or-self::node()",
	"//diagnosis/following-sibling::*",
	"//service/preceding-sibling::*",
	"//tonsillitis",
	"//@*",
	"/other",
	"//*[starts-with(text(), 'pneu')]",
}

// roValueQueries exercise the non-node-set result types plus one node-set
// valued expression (whose rows are compared like a Select answer).
var roValueQueries = []string{
	"count(//diagnosis)",
	"count(//*)",
	"string(/patients/p0/diagnosis)",
	"string(//RESTRICTED)",
	"name(/patients/*[1])",
	"count(//*[name() = 'RESTRICTED'])",
	"sum(//nothing)",
	"normalize-space(/patients/p1/service)",
	"boolean(//RESTRICTED)",
}

// roEnv builds a fresh document, hierarchy and policy of the given kind
// (mirrors the shared-scan oracle's ssEnv).
func roEnv(t *testing.T, seed int64, kind string) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	t.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: roPatients, RecordsPerPatient: roRecords, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(roPatients)
	if err != nil {
		t.Fatal(err)
	}
	var p *policy.Policy
	switch kind {
	case "paper":
		p, err = workload.HospitalPolicy(h)
	case "scaled":
		p, err = workload.ScaledPolicy(h, 10)
	case "random":
		p, err = randomPolicy(h, seed)
	case "gate":
		p, err = gatePolicy(h)
	default:
		t.Fatalf("unknown policy kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

// randomPolicy draws rules from a path pool spanning all four quadrants of
// (chain-only | outside the chain-only xpath.NodeMatcher fragment) ×
// ($USER-independent | $USER-dependent). Profiles with an out-of-fragment
// read/position rule get static plans like any other, so the oracle checks
// the classifier stays sound for them.
func randomPolicy(h *subject.Hierarchy, seed int64) (*policy.Policy, error) {
	paths := []string{
		"/patients",                            // chain, indep
		"//service",                            // chain, indep
		"//diagnosis/node()",                   // chain, indep
		"/patients/*/record",                   // chain, indep
		"//record[starts-with(name(), 'rec')]", // chain pred, indep
		"/patients/*[name() = $USER]/descendant-or-self::node()", // chain, dep
		"/patients/*[name() = $USER]",                            // chain, dep
		"/patients/*[1]",                                         // positional pred, indep
		"//record[note]",                                         // location-path pred, indep
		"/patients/*[name() = $USER]/record[note]",               // location-path pred, dep
	}
	subjects := []string{"staff", "secretary", "doctor", "patient", "epidemiologist"}
	p := policy.New()
	n := 8 + int(seed%5)
	for i := 0; i < n; i++ {
		k := (int(seed) + i*7) % len(paths)
		eff := policy.Accept
		if (int(seed)+i)%3 == 0 {
			eff = policy.Deny
		}
		r := policy.Rule{
			Effect:    eff,
			Privilege: policy.Privileges[(int(seed)+i)%len(policy.Privileges)],
			Path:      paths[k],
			Subject:   subjects[(int(seed)+i*3)%len(subjects)],
			Priority:  int64(50 + i),
		}
		if err := p.Add(h, r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// gateUsers hold no role, so their own rules are their whole profile:
// auditor's are name-only grants, so its view shows RESTRICTED nodes no
// accept pattern names (the classifier must read a query's RESTRICTED
// tests as any name, xpath.Pattern.ViewPreimage); registrar sees the last
// patient only through a positional predicate, archivist every patient
// only through a reverse axis.
var gateUsers = []string{"auditor", "registrar", "archivist"}

// gatePolicy is the paper policy plus explicit read and position rules
// outside the chain-only fragment — positional predicates, reverse and
// sideways axes — and the rules of gateUsers, whom it adds to h.
func gatePolicy(h *subject.Hierarchy) (*policy.Policy, error) {
	for _, u := range gateUsers {
		if err := h.AddUser(u); err != nil {
			return nil, err
		}
	}
	p, err := workload.HospitalPolicy(h)
	if err != nil {
		return nil, err
	}
	for i, r := range []policy.Rule{
		{Effect: policy.Deny, Privilege: policy.Read, Path: "/patients/*[1]/diagnosis/node()", Subject: "doctor"},
		{Effect: policy.Accept, Privilege: policy.Read, Path: "//diagnosis/ancestor::*[1]", Subject: "epidemiologist"},
		{Effect: policy.Accept, Privilege: policy.Position, Path: "//service/following-sibling::*", Subject: "epidemiologist"},
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients/*[last()]/service", Subject: "patient"},
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients", Subject: "auditor"},
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients/p0", Subject: "auditor"},
		{Effect: policy.Accept, Privilege: policy.Position, Path: "/patients/p1", Subject: "auditor"},
		{Effect: policy.Accept, Privilege: policy.Position, Path: "//service", Subject: "auditor"},
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients", Subject: "registrar"},
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients/*[last()]/descendant-or-self::node()", Subject: "registrar"},
		{Effect: policy.Accept, Privilege: policy.Read, Path: "/patients", Subject: "archivist"},
		{Effect: policy.Accept, Privilege: policy.Position, Path: "//diagnosis/..", Subject: "archivist"},
	} {
		r.Priority = int64(100 + i)
		if err := p.Add(h, r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// renderNode renders one answer node the way core.Session presents results:
// source identifier, kind, effective label, view path, filtered
// string-value. Nil sec renders stored labels (the view side, whose labels
// are already effective).
func renderNode(n *xmltree.Node, sec *xpath.Security) string {
	return fmt.Sprintf("%s %v %q %s %q",
		n.ID(), n.Kind(), sec.EffectiveLabel(n), sec.Path(n), sec.StringValue(n))
}

// renderValue renders a full answer: one row per node for node-sets, a
// single "type value" row for atomics.
func renderValue(val xpath.Value, sec *xpath.Security) []string {
	if ns, ok := val.(xpath.NodeSet); ok {
		rows := make([]string, len(ns))
		for i, n := range ns {
			rows[i] = renderNode(n, sec)
		}
		return rows
	}
	return []string{val.TypeName() + " " + val.Str()}
}

// planAnswer evaluates q for user as the query's plan denotes it: nothing for PlanEmpty, the raw query on the source for
// PlanTransparent, and the query on the source under qfilter.ForPerms over
// the user's permissions pm for PlanFiltered.
func planAnswer(pg *rewrite.Program, root *xmltree.Node, pm *policy.Perms, user, q string) ([]string, error) {
	pl, err := pg.PlanFor(q)
	if err != nil {
		return nil, err
	}
	var sec *xpath.Security
	switch pl.Mode {
	case rewrite.PlanEmpty:
		return nil, nil
	case rewrite.PlanFiltered:
		sec = qfilter.ForPerms(pm)
	}
	val, err := pl.Compiled().EvalFiltered(root, xpath.Vars{"USER": xpath.String(user)}, sec)
	if err != nil {
		return nil, err
	}
	return renderValue(val, sec), nil
}

// agreeWithView compares q's plan answer with its view answer for user,
// returning "" on agreement (both failing counts as agreement).
func agreeWithView(pg *rewrite.Program, root *xmltree.Node, pm *policy.Perms, v *view.View, user, q string) string {
	pl, err := pg.PlanFor(q)
	if err != nil {
		return fmt.Sprintf("user %s query %s: %v", user, q, err)
	}
	got, gotErr := planAnswer(pg, root, pm, user, q)
	want, wantErr := viewAnswer(v, user, q)
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Sprintf("user %s query %s (%v): plan error %v, view error %v", user, q, pl.Mode, gotErr, wantErr)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("user %s query %s (%v):\n plan: %v\n view: %v", user, q, pl.Mode, got, want)
	}
	return ""
}

// viewAnswer evaluates q over the user's materialized view — the reference
// semantics (axioms 15–17 by construction).
func viewAnswer(v *view.View, user, q string) ([]string, error) {
	c, err := xpath.Compile(q)
	if err != nil {
		return nil, err
	}
	val, err := c.Eval(v.Doc.Root(), xpath.Vars{"USER": xpath.String(user)})
	if err != nil {
		return nil, err
	}
	return renderValue(val, nil), nil
}

// runRewrite replays ops over a fresh environment, diffing the rewrite
// answer against the view answer for every user × query at every
// checkpoint. One engine persists across the whole run — its plans are
// document-independent, which every post-mutation checkpoint re-verifies.
// Returns the index of the op whose checkpoint failed (-1 on success).
func runRewrite(t *testing.T, seed int64, kind string, ops []*xupdate.Op) (int, string) {
	t.Helper()
	d, h, p := roEnv(t, seed, kind)
	eng := rewrite.NewEngine(p, h)
	queries := append(append([]string{}, roQueries...), roValueQueries...)
	check := func() string {
		for _, u := range h.Users() {
			pg := eng.ProgramFor(u)
			pm, err := p.Evaluate(d, h, u)
			if err != nil {
				return fmt.Sprintf("evaluate(%s): %v", u, err)
			}
			v := view.Materialize(d, pm)
			for _, q := range queries {
				if diff := agreeWithView(pg, d.Root(), pm, v, u, q); diff != "" {
					return diff
				}
			}
		}
		return ""
	}
	if diff := check(); diff != "" {
		return 0, "initial document: " + diff
	}
	for i, op := range ops {
		if _, err := xupdate.Execute(d, op, nil); err != nil {
			return i, fmt.Sprintf("execute: %v", err)
		}
		if (i+1)%roCheckEvery != 0 && i != len(ops)-1 {
			continue
		}
		if diff := check(); diff != "" {
			return i, fmt.Sprintf("after op %d (%s %s): %s", i, op.Kind, op.Select, diff)
		}
	}
	return -1, ""
}

// minimizeRewriteOps greedily drops ops while the sequence still fails.
func minimizeRewriteOps(t *testing.T, seed int64, kind string, ops []*xupdate.Op) []*xupdate.Op {
	t.Helper()
	cur := append([]*xupdate.Op(nil), ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			trial := append(append([]*xupdate.Op(nil), cur[:i]...), cur[i+1:]...)
			if idx, _ := runRewrite(t, seed, kind, trial); idx >= 0 {
				cur = trial
				changed = true
				i--
			}
		}
	}
	return cur
}

func dumpRewriteOps(ops []*xupdate.Op) string {
	var b strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&b, "  %2d: %s select=%q", i, op.Kind, op.Select)
		if op.NewValue != "" {
			fmt.Fprintf(&b, " vnew=%q", op.NewValue)
		}
		if op.Content != nil {
			fmt.Fprintf(&b, " content=%q", op.Content.XML())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRewriteDifferentialOracle(t *testing.T) {
	for _, kind := range roKinds {
		for _, seed := range roSeeds {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				d, _, _ := roEnv(t, seed, kind)
				stream := workload.OpStream(workload.OpConfig{Doc: d, Seed: seed})
				var ops []*xupdate.Op
				for i := 0; i < roOps; i++ {
					op, err := stream.Next()
					if err != nil {
						t.Fatal(err)
					}
					ops = append(ops, op)
					if _, err := xupdate.Execute(d, op, nil); err != nil {
						t.Fatalf("generating op %d: %v", i, err)
					}
				}
				if idx, diff := runRewrite(t, seed, kind, ops); idx >= 0 {
					minimized := minimizeRewriteOps(t, seed, kind, ops[:idx+1])
					t.Fatalf("rewrite mismatch at op %d:\n%s\nminimized reproducer (%d ops, %s seed %d):\n%s",
						idx, diff, len(minimized), kind, seed, dumpRewriteOps(minimized))
				}
			})
		}
	}
}

// TestPaperProfilesRewritable keeps the oracle above from passing
// vacuously on the paper policy: every profile has its applicable read and
// position rules, and the corpus draws both static and filtered plans.
func TestPaperProfilesRewritable(t *testing.T) {
	_, h, p := roEnv(t, 1, "paper")
	eng := rewrite.NewEngine(p, h)
	modes := map[rewrite.PlanMode]int{}
	for _, u := range h.Users() {
		pg := eng.ProgramFor(u)
		if len(pg.Rules()) == 0 {
			t.Errorf("user %s: empty profile; every paper user has read rules", u)
		}
		for _, q := range roQueries {
			pl, err := pg.PlanFor(q)
			if err != nil {
				t.Fatal(err)
			}
			modes[pl.Mode]++
		}
	}
	if modes[rewrite.PlanEmpty] == 0 || modes[rewrite.PlanFiltered] == 0 {
		t.Errorf("paper policy plan modes %v, want both empty and filtered plans", modes)
	}
}

// outOfFragment reports whether one of user's applicable read/position
// rules lies outside the chain-only xpath.NodeMatcher fragment.
func outOfFragment(t *testing.T, h *subject.Hierarchy, p *policy.Policy, user string) bool {
	t.Helper()
	for _, r := range p.Rules() {
		if (r.Privilege != policy.Read && r.Privilege != policy.Position) || !h.ISA(user, r.Subject) {
			continue
		}
		c, err := xpath.Compile(r.Path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.NodeMatcher(); !ok {
			return true
		}
	}
	return false
}

// TestRandomPoliciesExerciseBothPaths keeps the random and gate oracles
// honest: some profiles must hold a read/position rule outside the
// chain-only fragment, and those profiles must draw both static (empty)
// and filtered plans from the corpus, or the oracle no longer covers what
// the classifier accepts for them.
func TestRandomPoliciesExerciseBothPaths(t *testing.T) {
	var outside, inside int
	modes := map[rewrite.PlanMode]int{}
	check := func(seed int64, kind string) {
		_, h, p := roEnv(t, seed, kind)
		eng := rewrite.NewEngine(p, h)
		for _, u := range h.Users() {
			if !outOfFragment(t, h, p, u) {
				inside++
				continue
			}
			outside++
			pg := eng.ProgramFor(u)
			for _, q := range roQueries {
				pl, err := pg.PlanFor(q)
				if err != nil {
					t.Fatal(err)
				}
				modes[pl.Mode]++
			}
		}
	}
	for _, seed := range roSeeds {
		check(seed, "random")
	}
	check(1, "gate")
	if outside == 0 || inside == 0 {
		t.Fatalf("profiles outside the chain-only fragment: %d, inside: %d, want both > 0", outside, inside)
	}
	if modes[rewrite.PlanEmpty] == 0 || modes[rewrite.PlanFiltered] == 0 {
		t.Fatalf("plan modes of out-of-fragment profiles %v, want both empty and filtered plans", modes)
	}
}
