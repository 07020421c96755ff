package core

import (
	"context"
	"fmt"
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

func rewriteFallbackCounts() (frag, nsVal uint64) {
	return obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "rule_fragment").Value(),
		obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "nodeset_value").Value()
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
	f0, n0 := rewriteFallbackCounts()
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
	f1, n1 := rewriteFallbackCounts()
	if n1 != n0+1 || f1 != f0 {
		t.Errorf("fallback counters: nodeset_value+%d rule_fragment+%d, want 1/0", n1-n0, f1-f0)
	}

	// An out-of-fragment rule poisons the whole profile: staff queries
	// lose the static classification (rule_fragment counted) and stay on
	// qfilter, also once the session holds a fresh view.
	if err := db.AddRule(policy.Rule{
		Effect: policy.Accept, Privilege: policy.Read,
		Path: "/patients/*[1]", Subject: "staff", Priority: 500,
	}); err != nil {
		t.Fatal(err)
	}
	f1, _ = rewriteFallbackCounts()
	if _, tier, err = s.QueryTiered("//diagnosis"); err != nil || tier != TierQfilter {
		t.Fatalf("poisoned profile: tier %v err %v, want qfilter", tier, err)
	}
	f2, _ := rewriteFallbackCounts()
	if f2 != f1+1 {
		t.Errorf("rule_fragment fallback moved by %d, want 1", f2-f1)
	}
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	if _, tier, err = s.QueryTiered("//diagnosis"); err != nil || tier != TierQfilter {
		t.Fatalf("poisoned profile with fresh view: tier %v err %v, want qfilter", tier, err)
	}
}

// TestQueryTierAgreement cross-checks the rungs end-to-end on the public
// API: the same query answered before and after profile poisoning (rewrite
// vs qfilter vs view) yields identical results, and so does every auto
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
		// Poison the profile for every subject so all users drop a rung.
		for i, subj := range []string{"staff", "patient"} {
			if err := db.AddRule(policy.Rule{
				Effect: policy.Deny, Privilege: policy.Insert,
				Path: "/patients/*[1]", Subject: subj, Priority: int64(600 + i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Write privileges never disqualify: still the qfilter tier.
		if _, tier, err := s.QueryTiered("//diagnosis"); err != nil || tier != TierQfilter {
			t.Fatalf("user %s: write-rule poisoning changed the read tier to %v (err %v)", user, tier, err)
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
