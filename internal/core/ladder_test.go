package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// tierCounts snapshots the per-tier query counters (process-global, so
// assertions are on deltas).
func tierCounts() (rw, qf, vw uint64) {
	return queryTierCounters[TierRewrite].Value(),
		queryTierCounters[TierQfilter].Value(),
		queryTierCounters[TierView].Value()
}

// TestQueryTierRouting drives each route of the secured read path and
// asserts both the reported tier and the tier/fallback telemetry.
func TestQueryTierRouting(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")

	// Chain-only profile without a static plan: the source under the
	// session's maintained permissions serves node-set and atomic queries.
	r0, q0, v0 := tierCounts()
	res, tier, err := s.QueryTiered("//diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierQfilter || len(res) != 2 {
		t.Fatalf("doctor query: tier %v with %d results, want qfilter/2", tier, len(res))
	}
	if _, tier, err = s.QueryValueTiered("count(//diagnosis)"); err != nil || tier != TierQfilter {
		t.Fatalf("doctor count: tier %v err %v, want qfilter", tier, err)
	}
	r1, q1, v1 := tierCounts()
	if r1 != r0 || q1 != q0+2 || v1 != v0 {
		t.Errorf("tier counters after qfilter-served queries: rewrite+%d qfilter+%d view+%d, want 0/2/0",
			r1-r0, q1-q0, v1-v0)
	}

	// A non-empty node-set value must come from the materialized view
	// (raw source nodes would leak hidden labels), counted as a
	// nodeset_value fallback.
	n0 := nodeSetValueFallbacks.Value()
	val, tier, err := s.QueryValueTiered("//diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierView {
		t.Fatalf("node-set value: tier %v, want view", tier)
	}
	if ns, ok := val.(xpath.NodeSet); !ok || len(ns) != 2 {
		t.Fatalf("node-set value: %v", val)
	}
	if n1 := nodeSetValueFallbacks.Value(); n1 != n0+1 {
		t.Errorf("nodeset_value fallback moved by %d, want 1", n1-n0)
	}

	// No staff rule reads attributes, so an attribute query is statically
	// empty: served on the rewrite tier without touching the document.
	if res, tier, err = s.QueryTiered("//@id"); err != nil || tier != TierRewrite || len(res) != 0 {
		t.Fatalf("attribute query: tier %v err %v with %d results, want rewrite/0", tier, err, len(res))
	}

	// A read rule with a positional predicate keeps the static
	// classification: the empty plan stays on the rewrite tier and other
	// queries stay on qfilter, also once the session holds a fresh view.
	if err := db.AddRule(policy.Rule{
		Effect: policy.Accept, Privilege: policy.Read,
		Path: "/patients/*[1]", Subject: "staff", Priority: 500,
	}); err != nil {
		t.Fatal(err)
	}
	if _, tier, err = s.QueryTiered("//@id"); err != nil || tier != TierRewrite {
		t.Fatalf("positional rule: attribute query tier %v err %v, want rewrite", tier, err)
	}
	if _, tier, err = s.QueryTiered("//diagnosis"); err != nil || tier != TierQfilter {
		t.Fatalf("positional rule: tier %v err %v, want qfilter", tier, err)
	}
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	if _, tier, err = s.QueryTiered("//diagnosis"); err != nil || tier != TierQfilter {
		t.Fatalf("positional rule with fresh view: tier %v err %v, want qfilter", tier, err)
	}

	// The rewrite tier serves only static plans of the unpinned path, so a
	// pin on it fails instead of measuring another tier.
	if _, tier, err = s.QueryTierCtx(context.Background(), "//diagnosis", TierRewrite); !errors.Is(err, ErrTierUnavailable) || tier != TierRewrite {
		t.Fatalf("pinned rewrite query: tier %v err %v, want ErrTierUnavailable", tier, err)
	}
	if _, _, err = s.QueryValueTierCtx(context.Background(), "count(//diagnosis)", TierRewrite); !errors.Is(err, ErrTierUnavailable) {
		t.Fatalf("pinned rewrite value: err %v, want ErrTierUnavailable", err)
	}
}

// TestFallbackCounters: only a non-empty node-set value moves the
// nodeset_value fallback counter, registered under the metric name and
// label the end-to-end benchmark reads.
func TestFallbackCounters(t *testing.T) {
	s := session(t, hospital(t), "laporte")
	c := obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "nodeset_value")
	n0 := c.Value()
	for _, q := range []string{"count(//diagnosis)", "//nothing", "//@id"} {
		if _, _, err := s.QueryValueTiered(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.QueryTiered("//diagnosis"); err != nil {
		t.Fatal(err)
	}
	if d := c.Value() - n0; d != 0 {
		t.Errorf("nodeset_value moved by %d on atomic and empty values, want 0", d)
	}
	if _, tier, err := s.QueryValueTiered("//diagnosis"); err != nil || tier != TierView {
		t.Fatalf("node-set value: tier %v err %v, want view", tier, err)
	}
	if d := c.Value() - n0; d != 1 {
		t.Errorf("nodeset_value moved by %d, want 1", d)
	}
	// A node-set value pinned to qfilter is refused, not re-evaluated on
	// the view, so it is no fallback.
	pinned := session(t, hospital(t), "laporte")
	n1 := c.Value()
	if _, _, err := pinned.QueryValueTierCtx(context.Background(), "//diagnosis", TierQfilter); !errors.Is(err, ErrTierUnavailable) {
		t.Fatalf("pinned node-set value: err %v, want ErrTierUnavailable", err)
	}
	if d := c.Value() - n1; d != 0 {
		t.Errorf("nodeset_value moved by %d on a refused pinned value, want 0", d)
	}
}

// TestParseTier pins the names the server's -tier flag and the shell's
// tier command accept; rewrite is not among them.
func TestParseTier(t *testing.T) {
	for name, want := range map[string]Tier{"qfilter": TierQfilter, "view": TierView, "auto": TierAuto, "": TierAuto} {
		if got, err := ParseTier(name); err != nil || got != want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"rewrite", "bogus"} {
		_, err := ParseTier(name)
		if err == nil || !strings.Contains(err.Error(), "qfilter|view|auto") {
			t.Errorf("ParseTier(%q) error %v, want one listing qfilter|view|auto", name, err)
		}
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
			if _, tier, err := s.QueryTiered(q); err != nil || tier != TierQfilter {
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
		if _, tier, err := s.QueryTiered("//diagnosis"); err != nil || tier != TierQfilter {
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
			res, tier, err := session(t, db, user).QueryTiered(q)
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
	values := []string{"count(//diagnosis)", "string(/patients)", "//diagnosis", "boolean(//RESTRICTED)"}
	agree := func(step string) {
		t.Helper()
		for _, s := range sessions {
			for _, q := range queries {
				auto, _, err := s.QueryTiered(q)
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
				auto, _, err := s.QueryValueTiered(q)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := s.QueryValueTierCtx(context.Background(), q, TierView)
				if err != nil {
					t.Fatal(err)
				}
				if auto.TypeName()+auto.Str() != want.TypeName()+want.Str() {
					t.Errorf("%s: user %s value %s: auto %s %q, view %s %q", step, s.User(), q,
						auto.TypeName(), auto.Str(), want.TypeName(), want.Str())
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
		TierRewrite: "rewrite", TierQfilter: "qfilter", TierView: "view", Tier(99): "unknown",
	}
	for tier, label := range want {
		if tier.String() != label || tier.MetricLabel() != label {
			t.Errorf("tier %d: %q/%q, want %q", int(tier), tier.String(), tier.MetricLabel(), label)
		}
	}
}

// TestLadderEpochChurnRace hammers the read ladder from concurrent
// sessions while the policy epoch moves (grants/revokes rebuild the
// rewrite engine) and the document mutates — the invariants the rewrite
// tier's epoch-keyed engine cache must survive. Run with -race.
func TestLadderEpochChurnRace(t *testing.T) {
	db := hospital(t)
	readers := []*Session{
		session(t, db, "laporte"),
		session(t, db, "beaufort"),
		session(t, db, "franck"),
	}
	writer := session(t, db, "laporte")
	const iters = 60
	var wg sync.WaitGroup
	for _, s := range readers {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, _, err := s.QueryTiered("//diagnosis"); err != nil {
					t.Errorf("%s query: %v", s.User(), err)
					return
				}
				if _, _, err := s.QueryValueTiered("count(//*)"); err != nil {
					t.Errorf("%s count: %v", s.User(), err)
					return
				}
				if _, _, err := s.QueryTiered("/patients/*[name() = $USER]"); err != nil {
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
