package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// tierCounts snapshots the per-route query counters (process-global, so
// assertions are on deltas).
func tierCounts() (qf, vw uint64) {
	return queryTierCounters[TierQfilter].Value(), queryTierCounters[TierView].Value()
}

// TestQueryTierRouting drives each route of the secured read path and
// asserts the reported route, the answer and the route/fallback
// telemetry.
func TestQueryTierRouting(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")
	ctx := context.Background()

	// The source under the session's maintained permissions serves
	// node-set and atomic queries.
	q0, v0 := tierCounts()
	res, tier, err := s.QueryTierCtx(ctx, "//diagnosis", TierAuto)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierQfilter || len(res) != 2 {
		t.Fatalf("doctor query: tier %v with %d results, want qfilter/2", tier, len(res))
	}
	if _, tier, err = s.QueryValueTierCtx(ctx, "count(//diagnosis)", TierAuto); err != nil || tier != TierQfilter {
		t.Fatalf("doctor count: tier %v err %v, want qfilter", tier, err)
	}
	q1, v1 := tierCounts()
	if q1 != q0+2 || v1 != v0 {
		t.Errorf("tier counters after qfilter-served queries: qfilter+%d view+%d, want 2/0", q1-q0, v1-v0)
	}

	// A non-empty node-set value is served on the source too, but handed
	// out as copies through the filter (raw source nodes would leak
	// hidden labels), counted as a nodeset_value fallback.
	n0 := nodeSetValueFallbacks.Value()
	val, tier, err := s.QueryValueTierCtx(ctx, "//diagnosis", TierAuto)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierQfilter {
		t.Fatalf("node-set value: tier %v, want qfilter", tier)
	}
	ns, ok := val.(xpath.NodeSet)
	if !ok || len(ns) != 2 {
		t.Fatalf("node-set value: %v", val)
	}
	for _, n := range ns {
		if n.Document() == db.gen().doc || !n.Document().Frozen() {
			t.Fatalf("node-set value hands out %s of the source, want a frozen copy", n.Path())
		}
	}
	want, _, err := s.QueryValueTierCtx(ctx, "//diagnosis", TierView)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range want.(xpath.NodeSet) {
		if got := ns[i]; got.Path() != n.Path() || got.StringValue() != n.StringValue() || got.ID().String() != n.ID().String() {
			t.Errorf("node-set value %d: copy %s %q, view %s %q", i, got.Path(), got.StringValue(), n.Path(), n.StringValue())
		}
	}
	if n1 := nodeSetValueFallbacks.Value(); n1 != n0+1 {
		t.Errorf("nodeset_value fallback moved by %d, want 1", n1-n0)
	}

	// No staff rule reads attributes, so an attribute query is empty. It is
	// served on the source like every other read, with the view's answer.
	attrs := func(step string) {
		t.Helper()
		res, tier, err := s.QueryTierCtx(ctx, "//@id", TierAuto)
		if err != nil || tier != TierQfilter || len(res) != 0 {
			t.Fatalf("%s: attribute query tier %v err %v with %d results, want qfilter/0", step, tier, err, len(res))
		}
		if want := viewReference(t, s, "//@id"); fmt.Sprint(res) != fmt.Sprint(want) {
			t.Errorf("%s: attribute query %v, view %v", step, res, want)
		}
	}
	attrs("paper policy")

	// A read rule with a positional predicate changes nothing about the
	// route, checked against a fresh view (viewReference).
	if err := db.AddRule(policy.Rule{
		Effect: policy.Accept, Privilege: policy.Read,
		Path: "/patients/*[1]", Subject: "staff", Priority: 500,
	}); err != nil {
		t.Fatal(err)
	}
	if res, tier, err = s.QueryTierCtx(ctx, "//diagnosis", TierAuto); err != nil || tier != TierQfilter {
		t.Fatalf("positional rule: tier %v err %v, want qfilter", tier, err)
	}
	if want := viewReference(t, s, "//diagnosis"); fmt.Sprint(res) != fmt.Sprint(want) {
		t.Errorf("positional rule: query %v, view %v", res, want)
	}
	attrs("positional rule with fresh view")
}

// TestFallbackCounters: only a non-empty node-set value moves the
// nodeset_value fallback counter, registered under the metric name and
// label the end-to-end benchmark reads.
func TestFallbackCounters(t *testing.T) {
	s := session(t, hospital(t), "laporte")
	c := obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "nodeset_value")
	n0 := c.Value()
	for _, q := range []string{"count(//diagnosis)", "//nothing", "//@id"} {
		if _, err := s.QueryValue(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query("//diagnosis"); err != nil {
		t.Fatal(err)
	}
	if d := c.Value() - n0; d != 0 {
		t.Errorf("nodeset_value moved by %d on atomic and empty values, want 0", d)
	}
	if _, tier, err := s.QueryValueTierCtx(context.Background(), "//diagnosis", TierAuto); err != nil || tier != TierQfilter {
		t.Fatalf("node-set value: tier %v err %v, want qfilter", tier, err)
	}
	if d := c.Value() - n0; d != 1 {
		t.Errorf("nodeset_value moved by %d, want 1", d)
	}
}

// TestQueryTierAgreement cross-checks the rungs end-to-end on the public
// API: the same query answered before and after adding write and
// positional rules (qfilter vs view) yields identical results, and so does every auto
// read of every paper user after each write of a secured write sequence.
// (The internal/scenario corpus shapes get the same check in that
// package's TestCorpusTierAgreement: it imports core, so core's tests
// cannot import it.)
func TestQueryTierAgreement(t *testing.T) {
	queries := []string{"//diagnosis", "/patients/*", "//RESTRICTED", "/patients/*[name() = $USER]", "//text()"}
	for _, user := range []string{"laporte", "beaufort", "richard", "franck"} {
		db := hospital(t)
		s := session(t, db, user)
		for _, q := range queries {
			if _, tier, err := s.QueryTierCtx(context.Background(), q, TierAuto); err != nil || tier != TierQfilter {
				t.Fatalf("user %s query %s: tier %v err %v, want qfilter", user, q, tier, err)
			}
		}
		// Add rules with positional predicates for every subject.
		for i, subj := range []string{"staff", "patient"} {
			if err := db.AddRule(policy.Rule{
				Effect: policy.Deny, Privilege: policy.Insert,
				Path: "/patients/*[1]", Subject: subj, Priority: int64(600 + i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Write privileges never matter to reads: still the qfilter tier.
		if _, tier, err := s.QueryTierCtx(context.Background(), "//diagnosis", TierAuto); err != nil || tier != TierQfilter {
			t.Fatalf("user %s: a write rule changed the read tier to %v (err %v)", user, tier, err)
		}
		for i, subj := range []string{"staff", "patient"} {
			if err := db.AddRule(policy.Rule{
				Effect: policy.Accept, Privilege: policy.Position,
				Path: "/patients/*[last()]", Subject: subj, Priority: int64(700 + i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			// A fresh session holds no view, so the qfilter rung derives
			// the permissions once and caches them.
			res, tier, err := session(t, db, user).QueryTierCtx(context.Background(), q, TierAuto)
			if err != nil {
				t.Fatal(err)
			}
			if tier != TierQfilter {
				t.Fatalf("user %s query %s: tier %v, want qfilter", user, q, tier)
			}
			if fmt.Sprint(res) != fmt.Sprint(viewReference(t, s, q)) {
				t.Errorf("user %s query %s: qfilter answer diverged from view", user, q)
			}
		}
	}

	// Warm sessions patched by other sessions' writes: after each write,
	// every auto answer equals the pinned view tier's.
	db := hospital(t)
	var sessions []*Session
	for _, u := range []string{"laporte", "beaufort", "richard", "robert", "franck"} {
		sessions = append(sessions, session(t, db, u))
	}
	values := []string{"count(//diagnosis)", "string(/patients)", "//diagnosis", "boolean(//RESTRICTED)",
		"/patients/*", "//RESTRICTED", "//text()", "/", "//diagnosis/..", "//nothing"}
	agree := func(step string) {
		t.Helper()
		for _, s := range sessions {
			for _, q := range queries {
				auto, _, err := s.QueryTierCtx(context.Background(), q, TierAuto)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := s.QueryTierCtx(context.Background(), q, TierView)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(auto) != fmt.Sprint(want) {
					t.Errorf("%s: user %s query %s: auto %v, view %v", step, s.User(), q, auto, want)
				}
			}
			for _, q := range values {
				auto, _, err := s.QueryValueTierCtx(context.Background(), q, TierAuto)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := s.QueryValueTierCtx(context.Background(), q, TierView)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := valueSignature(auto), valueSignature(want); got != want {
					t.Errorf("%s: user %s value %s:\nauto: %s\nview: %s", step, s.User(), q, got, want)
				}
			}
		}
	}
	agree("initial")
	for _, w := range []struct {
		user      string
		kind      xupdate.Kind
		path, arg string
		applied   bool
	}{
		{"laporte", xupdate.Update, "/patients/franck/diagnosis", "pharyngitis", true},
		{"beaufort", xupdate.Append, "/patients", "<martin><service>cardiology</service><diagnosis>flu</diagnosis></martin>", true},
		{"laporte", xupdate.Remove, "/patients/robert/diagnosis/node()", "", true},
		{"franck", xupdate.Update, "/patients/robert/service", "refused", false},
	} {
		op, err := xupdate.NewOp(w.kind, w.path, w.arg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := session(t, db, w.user).Update(op)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Applied > 0) != w.applied {
			t.Fatalf("%s %s %s: applied %d, want applied=%v", w.user, w.kind, w.path, res.Applied, w.applied)
		}
		agree(fmt.Sprintf("after %s %s %s", w.user, w.kind, w.path))
	}
}

// valueSignature renders a value for comparison: its type and string,
// and for a node-set every node's kind, identifier, path, string-value and
// subtree — what a caller of QueryValue can observe of it.
func valueSignature(v xpath.Value) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %q\n", v.TypeName(), v.Str())
	ns, _ := v.(xpath.NodeSet)
	for _, n := range ns {
		fmt.Fprintf(&b, "%s %s %s %q\n", n.Kind(), n.IDString(), n.Path(), n.StringValue())
		n.Walk(func(m *xmltree.Node) bool {
			fmt.Fprintf(&b, "  %s|%s|%s\n", m.IDString(), m.Kind(), m.Label())
			return true
		})
	}
	return b.String()
}

// viewReference evaluates q over the session's materialized view through
// the public View API — the reference answer for any tier.
func viewReference(t *testing.T, s *Session, q string) []Result {
	t.Helper()
	v, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	c, err := xpath.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.Select(v.Doc.Root(), xpath.Vars{"USER": xpath.String(s.User())})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(ns))
	for i, n := range ns {
		out[i] = Result{Kind: n.Kind(), Label: n.Label(), Path: n.Path(), Value: n.StringValue()}
	}
	return out
}

// TestTierEnumLabels pins the ladder's telemetry labels.
func TestTierEnumLabels(t *testing.T) {
	want := map[Tier]string{
		TierQfilter: "qfilter", TierView: "view", Tier(99): "unknown",
	}
	for tier, label := range want {
		if tier.String() != label || tier.MetricLabel() != label {
			t.Errorf("tier %d: %q/%q, want %q", int(tier), tier.String(), tier.MetricLabel(), label)
		}
	}
}

// TestLadderEpochChurnRace hammers the secured read path from concurrent
// sessions while the policy epoch moves (grants/revokes make every
// session re-derive its permissions) and the document mutates (sessions
// patch their permissions by delta): every read must succeed throughout.
// Run with -race.
func TestLadderEpochChurnRace(t *testing.T) {
	db := hospital(t)
	readers := []*Session{
		session(t, db, "laporte"),
		session(t, db, "beaufort"),
		session(t, db, "franck"),
	}
	writer := session(t, db, "laporte")
	ctx := context.Background()
	const iters = 60
	var wg sync.WaitGroup
	for _, s := range readers {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := s.QueryCtx(ctx, "//diagnosis"); err != nil {
					t.Errorf("%s query: %v", s.User(), err)
					return
				}
				if _, err := s.QueryValueCtx(ctx, "count(//*)"); err != nil {
					t.Errorf("%s count: %v", s.User(), err)
					return
				}
				if _, err := s.QueryCtx(ctx, "/patients/*[name() = $USER]"); err != nil {
					t.Errorf("%s self query: %v", s.User(), err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			var err error
			if i%2 == 0 {
				err = db.Grant(policy.Read, "//service", "patient")
			} else {
				err = db.Revoke(policy.Read, "//service", "patient")
			}
			if err != nil {
				t.Errorf("churn %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			_, err := writer.Update(&xupdate.Op{
				Kind:     xupdate.Update,
				Select:   "/patients/franck/diagnosis",
				NewValue: fmt.Sprintf("tonsillitis-%d", i),
			})
			if err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
}
