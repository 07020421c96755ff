package core

import (
	"context"
	"strings"
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
)

// findPriv returns the privilege story with the given name.
func findPriv(t *testing.T, ne NodeExplanation, name string) policy.PrivilegeStory {
	t.Helper()
	for _, ps := range ne.Privileges {
		if ps.Privilege == name {
			return ps
		}
	}
	t.Fatalf("node %s has no %q story", ne.Path, name)
	return policy.PrivilegeStory{}
}

// TestExplainPaperScenario checks the provenance stories on the paper's
// hospital policy: the secretary's diagnosis denial (axiom 14: the revoke
// defeats the staff-wide grant), the RESTRICTED verdict it produces, and
// the patient's $USER-overlay cells; a patient's explain of another
// patient's data is empty, and only the administrator's ExplainAs reaches
// it.
func TestExplainPaperScenario(t *testing.T) {
	db := hospital(t)

	sec := session(t, db, "beaufort")
	ex, err := sec.Explain("//diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Consistent {
		t.Fatalf("secretary explain inconsistent: %+v", ex)
	}
	if ex.User != "beaufort" || ex.RulesApplicable == 0 || len(ex.Nodes) != 2 {
		t.Fatalf("explain header: %+v", ex)
	}
	for _, ne := range ex.Nodes {
		read := findPriv(t, ne, "read")
		if read.Granted || read.Winner == nil {
			t.Fatalf("secretary read on %s: %+v", ne.Path, read)
		}
		if !strings.Contains(read.Winner.Rule, "deny") || !strings.Contains(read.Winner.Rule, "secretary") {
			t.Fatalf("winner should be the secretary deny rule: %s", read.Winner.Rule)
		}
		if len(read.Defeated) == 0 || !strings.Contains(read.Defeated[0].Rule, "staff") {
			t.Fatalf("the staff-wide grant should be defeated: %+v", read.Defeated)
		}
		if read.Winner.Priority <= read.Defeated[0].Priority {
			t.Fatal("axiom 14: the winner must carry the latest priority")
		}
		pos := findPriv(t, ne, "position")
		if !pos.Granted {
			t.Fatalf("secretary position on %s: %+v", ne.Path, pos)
		}
		if ne.Visibility != VerdictRestricted {
			t.Fatalf("diagnosis content verdict = %q, want %q", ne.Visibility, VerdictRestricted)
		}
	}

	// Doctor: plain staff read, fully visible.
	doc := session(t, db, "laporte")
	dex, err := doc.Explain("//diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if !dex.Consistent {
		t.Fatalf("doctor explain inconsistent: %+v", dex)
	}
	for _, ne := range dex.Nodes {
		if ne.Visibility != VerdictVisible || !findPriv(t, ne, "read").Granted {
			t.Fatalf("doctor should read diagnosis content: %+v", ne)
		}
	}

	// Patient robert: own subtree readable through the $USER rule (an
	// overlay cell), franck's subtree hidden with no addressing rule.
	pat := session(t, db, "robert")
	own, err := pat.Explain("/patients/robert/diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if !own.Consistent || len(own.Nodes) != 1 {
		t.Fatalf("patient explain: %+v", own)
	}
	ne := own.Nodes[0]
	if ne.Visibility != VerdictVisible || ne.Origin != "overlay" {
		t.Fatalf("patient's own diagnosis: visibility=%q origin=%q, want visible/overlay", ne.Visibility, ne.Origin)
	}
	if w := findPriv(t, ne, "read").Winner; w == nil || !strings.Contains(w.Rule, "$USER") {
		t.Fatalf("patient read winner should be the $USER rule: %+v", w)
	}
	// Neither a path nor a value test over franck's data reaches it: his
	// query and his explain answer alike.
	for _, probe := range []string{"/patients/franck/diagnosis/text()", "//diagnosis[.='tonsillitis']"} {
		res, err := pat.Query(probe)
		if err != nil {
			t.Fatal(err)
		}
		other, err := pat.Explain(probe)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 || len(other.Nodes) != 0 {
			t.Fatalf("robert %s: query %v, explain %+v; want both empty", probe, res, other.Nodes)
		}
	}
	admin, err := db.ExplainAs("robert", "/patients/franck/diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if !admin.Consistent || len(admin.Nodes) != 1 {
		t.Fatalf("patient cross-read ExplainAs: %+v", admin)
	}
	one := admin.Nodes[0]
	if one.Visibility == VerdictVisible || one.Visibility == VerdictRestricted {
		t.Fatalf("franck's diagnosis must not be in robert's view: %q", one.Visibility)
	}
	if findPriv(t, one, "read").Granted {
		t.Fatal("closed world: no rule grants robert read on franck's data")
	}
}

// TestExplainDifferentialOracle: for seeded random 4-quadrant policies,
// the re-derived provenance winner must equal the Evaluate/EvaluateShared
// cell for every (user, node, privilege) and the axiom 15–17 verdict must
// match Materialize node-for-node — both cross-checks run inside
// explainNode, so Consistent==true over every node of the document is the
// assertion. It runs through the source-wide ExplainAs, so the hidden
// verdicts (hidden-by-parent, no-read) are derived and checked too.
func TestExplainDifferentialOracle(t *testing.T) {
	verdicts := make(map[string]int)
	for seed := int64(1); seed <= 6; seed++ {
		db := randomExplainDB(t, seed)
		for _, user := range db.Users() {
			ex, err := db.ExplainAs(user, "/descendant-or-self::node()")
			if err != nil {
				t.Fatalf("seed %d user %s: %v", seed, user, err)
			}
			if len(ex.Nodes) == 0 {
				t.Fatalf("seed %d user %s: no nodes explained", seed, user)
			}
			for _, ne := range ex.Nodes {
				verdicts[ne.Visibility]++
				if !ne.Consistent {
					t.Errorf("seed %d user %s node %s: %v", seed, user, ne.Path, ne.Mismatches)
				}
				switch ne.Origin {
				case "overlay", "shared-profile", "private":
				default:
					t.Errorf("seed %d user %s node %s: bad origin %q", seed, user, ne.Path, ne.Origin)
				}
			}
			if !ex.Consistent {
				t.Fatalf("seed %d user %s: provenance disagrees with production", seed, user)
			}
		}
	}
	for _, v := range []string{VerdictVisible, VerdictRestricted, VerdictHiddenByParent, VerdictNoRead} {
		if verdicts[v] == 0 {
			t.Errorf("no node got verdict %q: %v", v, verdicts)
		}
	}
}

// TestExplainSelectsLikeQuery: a user's explain is bounded by the view.
// For every user and every path of the random policies (plus a value test
// over another patient's diagnosis), the nodes Session.Explain reports —
// kind, view path and effective label, in order — are exactly the nodes
// Session.Query returns, so explain answers nothing a query would not.
func TestExplainSelectsLikeQuery(t *testing.T) {
	paths := append([]string{"/descendant-or-self::node()", "//diagnosis[.='tonsillitis']"}, explainRulePaths...)
	for seed := int64(1); seed <= 6; seed++ {
		db := randomExplainDB(t, seed)
		for _, user := range db.Users() {
			s := session(t, db, user)
			for _, path := range paths {
				res, err := s.Query(path)
				if err != nil {
					t.Fatalf("seed %d user %s query %s: %v", seed, user, path, err)
				}
				ex, err := s.Explain(path)
				if err != nil {
					t.Fatalf("seed %d user %s explain %s: %v", seed, user, path, err)
				}
				if !ex.Consistent {
					t.Errorf("seed %d user %s explain %s inconsistent", seed, user, path)
				}
				var got, want []string
				for _, ne := range ex.Nodes {
					got = append(got, ne.Kind+" "+ne.Path+" "+ne.Label)
				}
				for _, r := range res {
					want = append(want, r.Kind.String()+" "+r.Path+" "+r.Label)
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("seed %d user %s path %s: explain reports\n%s\nquery returns\n%s",
						seed, user, path, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			}
		}
	}
}

// randomExplainDB mirrors the shared-scan test generator on the public
// API: rules drawn from a pool spanning all four quadrants of the
// shared-scan partition, (chain-only | fallback) × ($USER-independent |
// $USER-dependent), so the oracle exercises patchable and unpatchable
// users, shared profiles and overlays alike.
func randomExplainDB(t *testing.T, seed int64) *Database {
	t.Helper()
	db := New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.LoadXMLString(`<patients>` +
		`<franck><service>oto</service><diagnosis>tonsillitis</diagnosis><record><note>n1</note></record></franck>` +
		`<robert><service>pneumo</service><diagnosis>pneumonia</diagnosis><record>r2</record></robert>` +
		`</patients>`))
	must(db.AddRole("staff"))
	must(db.AddRole("secretary", "staff"))
	must(db.AddRole("doctor", "staff"))
	must(db.AddRole("epidemiologist", "staff"))
	must(db.AddRole("patient"))
	must(db.AddUser("beaufort", "secretary"))
	must(db.AddUser("laporte", "doctor"))
	must(db.AddUser("franck", "patient"))
	must(db.AddUser("robert", "patient"))
	subjects := []string{"staff", "secretary", "doctor", "patient", "epidemiologist"}
	n := 8 + int(seed%5)
	for i := 0; i < n; i++ {
		path := explainRulePaths[(int(seed)+i*7)%len(explainRulePaths)]
		priv := policy.Privileges[(int(seed)+i)%len(policy.Privileges)]
		subj := subjects[(int(seed)+i*3)%len(subjects)]
		if (int(seed)+i)%3 == 0 {
			must(db.Revoke(priv, path, subj))
		} else {
			must(db.Grant(priv, path, subj))
		}
	}
	return db
}

// explainRulePaths is the rule path pool of randomExplainDB.
var explainRulePaths = []string{
	"/patients",
	"//service",
	"//diagnosis/node()",
	"/patients/*/record",
	"//record[starts-with(name(), 'rec')]",
	"/patients/*[name() = $USER]/descendant-or-self::node()",
	"/patients/*[name() = $USER]",
	"/patients/*[1]",
	"//record[note]",
	"/patients/*[name() = $USER]/record[note]",
}

func TestExplainErrors(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")
	if _, err := s.Explain("///"); err == nil {
		t.Fatal("bad xpath must error")
	}
	// The error lands in the audit trail like every session op.
	found := false
	for _, e := range db.Audit() {
		if e.Action == "explain" && strings.HasPrefix(e.Outcome, "error") {
			found = true
		}
	}
	if !found {
		t.Fatal("failed explain not audited")
	}
}

// TestExplainDoesNotCountDecisions: the diagnostic path must not inflate
// the enforcement counters (Peek, not Has).
func TestExplainDoesNotCountDecisions(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")
	if _, err := s.View(); err != nil { // warm the view outside Explain
		t.Fatal(err)
	}
	before := decisionCount()
	if _, err := s.Explain("//diagnosis"); err != nil {
		t.Fatal(err)
	}
	if after := decisionCount(); after != before {
		t.Fatalf("explain moved xmlsec_policy_decisions_total %d -> %d", before, after)
	}
}

func decisionCount() uint64 {
	var total uint64
	for _, c := range obs.Default().Snapshot().Counters {
		if c.Name == "xmlsec_policy_decisions_total" {
			total += c.Value
		}
	}
	return total
}

// TestExplainTracesSpans: under an active trace the explain call shows up
// as a session_explain span (the diagnostic path is itself observable).
func TestExplainTracesSpans(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")
	tracer := obs.NewTracer(4, 0, nil)
	ctx, trace := tracer.StartTrace(context.Background(), "test_explain")
	if _, err := s.ExplainCtx(ctx, "//diagnosis"); err != nil {
		t.Fatal(err)
	}
	trace.Finish()
	ex := trace.Export()
	if len(ex.Root.Children) != 1 || ex.Root.Children[0].Name != "session_explain" {
		t.Fatalf("trace children: %+v", ex.Root.Children)
	}
}
