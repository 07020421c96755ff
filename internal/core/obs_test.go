package core

import (
	"context"
	"strings"
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/xupdate"
)

// cacheCounts snapshots the view-cache counters so tests can assert on
// deltas: the registry is process-global and other tests contribute too.
func cacheCounts() (hits, cold, doc, epoch uint64) {
	return cacheHits.Value(), cacheMissCold.Value(), cacheMissDoc.Value(), cacheMissEpoch.Value()
}

// TestViewCacheCounters walks the session cache through its outcomes —
// cold miss, hit, permissions patch on a read after a write, view catch-up
// on the next View, policy-epoch miss after a grant — and asserts exactly
// the expected counters move each time. Views are pulled explicitly
// through View, one of the cache's clients alongside queries and the write
// path.
func TestViewCacheCounters(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")

	h0, c0, d0, e0 := cacheCounts()
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	h1, c1, d1, e1 := cacheCounts()
	if c1 != c0+1 || h1 != h0 || d1 != d0 || e1 != e0 {
		t.Errorf("first view: want one cold miss, got hits+%d cold+%d doc+%d epoch+%d",
			h1-h0, c1-c0, d1-d0, e1-e0)
	}

	// Same session, nothing changed: pure hit.
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	h2, c2, d2, e2 := cacheCounts()
	if h2 != h1+1 || c2 != c1 || d2 != d1 || e2 != e1 {
		t.Errorf("repeat view: want one hit, got hits+%d cold+%d doc+%d epoch+%d",
			h2-h1, c2-c1, d2-d1, e2-e1)
	}

	// An applied update bumps the document version. The paper policy is
	// chain-only for laporte, so the *next read* patches the cached
	// permissions incrementally and leaves the view behind: the applied
	// counter moves once (the permissions half), no hit or miss does.
	incApplied := obs.Default().Counter("xmlsec_view_incremental_applied_total")
	ruleEvals := obs.Default().Counter("xmlsec_policy_rule_evals_total")
	if _, err := s.Update(&xupdate.Op{
		Kind:     xupdate.Update,
		Select:   "/patients/franck/diagnosis",
		NewValue: "pharyngitis",
	}); err != nil {
		t.Fatal(err)
	}
	h3, c3, d3, e3 := cacheCounts()
	i3 := incApplied.Value()
	if _, err := s.Query("//diagnosis"); err != nil {
		t.Fatal(err)
	}
	h4, c4, d4, e4 := cacheCounts()
	i4 := incApplied.Value()
	if i4 != i3+1 || h4 != h3 || c4 != c3 || d4 != d3 || e4 != e3 {
		t.Errorf("read after write: want one permissions patch, got applied+%d hits+%d cold+%d doc+%d epoch+%d",
			i4-i3, h4-h3, c4-c3, d4-d3, e4-e3)
	}

	// The next View finds the permissions current (a hit) and catches the
	// lagging view up: one more apply (the view half), which re-runs no
	// policy rule.
	r4 := ruleEvals.Value()
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	h5, c5, d5, e5 := cacheCounts()
	i5, r5 := incApplied.Value(), ruleEvals.Value()
	if i5 != i4+1 || h5 != h4+1 || c5 != c4 || d5 != d4 || e5 != e4 || r5 != r4 {
		t.Errorf("view after read: want one view catch-up and a hit, got applied+%d hits+%d cold+%d doc+%d epoch+%d rule evals+%d",
			i5-i4, h5-h4, c5-c4, d5-d4, e5-e4, r5-r4)
	}

	// A grant bumps the policy epoch without touching the document.
	if err := db.Grant(policy.Read, "//service", "patient"); err != nil {
		t.Fatal(err)
	}
	h6, _, d6, e6 := cacheCounts()
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	h7, _, d7, e7 := cacheCounts()
	if e7 != e6+1 || h7 != h6 || d7 != d6 {
		t.Errorf("view after grant: want one policy_epoch miss, got hits+%d doc+%d epoch+%d",
			h7-h6, d7-d6, e7-e6)
	}
}

// TestAuditCarriesRequestID asserts the observability contract on the audit
// stream: entries record the request id from the context and a measured
// duration.
func TestAuditCarriesRequestID(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")
	ctx := obs.WithRequestID(context.Background(), "req-telemetry-1")
	if _, err := s.QueryCtx(ctx, "//diagnosis"); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range db.Audit() {
		if e.ReqID == "req-telemetry-1" {
			found = true
			if e.Action != "query" {
				t.Errorf("Action = %q, want query", e.Action)
			}
			if e.Duration <= 0 {
				t.Errorf("Duration = %v, want > 0", e.Duration)
			}
		}
	}
	if !found {
		t.Fatal("no audit entry carries the request id")
	}
	// Context-free calls still audit, with an empty ReqID.
	if _, err := s.Query("//service"); err != nil {
		t.Fatal(err)
	}
	last := db.Audit()[len(db.Audit())-1]
	if last.ReqID != "" {
		t.Errorf("context-free query ReqID = %q, want empty", last.ReqID)
	}
	if last.Duration <= 0 {
		t.Errorf("context-free query Duration = %v, want > 0", last.Duration)
	}
}

// TestFreshSessionWriteDerivesNoView guards the write path's reuse of the
// session's maintained state: when the writing session's cached
// permissions are current, the write selects under them inside its commit
// round and records no policy_evaluate and no view_materialize stage; its
// session_update span names the source. A follow-up write patches the
// permissions from the first write's deltas before it submits, so it
// derives nothing either. A write after another session's publish patches
// only the permissions (one part=perms span) and leaves the view behind
// (no part=view catch-up).
func TestFreshSessionWriteDerivesNoView(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	eval, mat := obs.Stage("policy_evaluate"), obs.Stage("view_materialize")
	e0, m0 := eval.Count(), mat.Count()
	s0, r0 := sourceCounts()
	tracer := obs.NewTracer(4, 0, nil)
	ctx, trace := tracer.StartTrace(context.Background(), "test_write")
	res, err := s.UpdateCtx(ctx, &xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "pharyngitis"})
	if err != nil {
		t.Fatal(err)
	}
	trace.Finish()
	if res.Applied != 1 {
		t.Fatalf("update not applied: %+v", res)
	}
	if _, err := s.Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/robert/diagnosis", NewValue: "asthma"}); err != nil {
		t.Fatal(err)
	}
	if de, dm := eval.Count()-e0, mat.Count()-m0; de != 0 || dm != 0 {
		t.Errorf("writes with a fresh cached view recorded %d policy_evaluate and %d view_materialize stages, want 0 and 0", de, dm)
	}
	if s1, r1 := sourceCounts(); s1 != s0+2 || r1 != r0 {
		t.Errorf("view sources session+%d rebuild+%d, want +2/+0", s1-s0, r1-r0)
	}
	ex := trace.Export()
	if len(ex.Root.Children) != 1 || ex.Root.Children[0].Name != "session_update" {
		t.Fatalf("trace children: %+v", ex.Root.Children)
	}
	if got := ex.Root.Children[0].Attrs["view_source"]; got != "session" {
		t.Errorf("session_update view_source = %q, want session", got)
	}

	if _, err := session(t, db, "laporte").Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "angina"}); err != nil {
		t.Fatal(err)
	}
	ctx, trace = tracer.StartTrace(context.Background(), "test_write_after_publish")
	if res, err := s.UpdateCtx(ctx, &xupdate.Op{Kind: xupdate.Update, Select: "/patients/robert/diagnosis", NewValue: "bronchitis"}); err != nil || res.Applied != 1 {
		t.Fatalf("write after another session's publish: %+v %v", res, err)
	}
	trace.Finish()
	if parts := incrementalParts(t, trace.Export()); len(parts) != 1 || parts[0] != "perms" {
		t.Errorf("write after another session's publish: view_incremental parts %v, want [perms]", parts)
	}
}

// TestWarmReadsPatchMaintainedPermissions: after another session's write,
// a warm session's auto Query, atomic QueryValue and Transform each bring
// the session's maintained permissions up to date with one delta patch,
// traced as one view_incremental span annotated part=perms. None derives
// permissions, materializes a view or catches the view up. A following
// View catches the view up in one part=view span that re-runs no policy
// rule, and serves what a fresh session materializes.
func TestWarmReadsPatchMaintainedPermissions(t *testing.T) {
	const sheet = `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	  <xsl:template match="/"><r><xsl:value-of select="count(//diagnosis)"/></r></xsl:template>
	</xsl:stylesheet>`
	evalShared, mat := obs.Stage("policy_evaluate_shared"), obs.Stage("view_materialize")
	ruleEvals := obs.Default().Counter("xmlsec_policy_rule_evals_total")
	tracer := obs.NewTracer(8, 0, nil)
	for _, read := range []struct {
		name string
		run  func(ctx context.Context, s *Session) error
	}{
		{"query", func(ctx context.Context, s *Session) error { _, err := s.QueryCtx(ctx, "//diagnosis"); return err }},
		{"value", func(ctx context.Context, s *Session) error {
			_, err := s.QueryValueCtx(ctx, "count(//diagnosis)")
			return err
		}},
		{"transform", func(ctx context.Context, s *Session) error { _, err := s.TransformCtx(ctx, sheet); return err }},
	} {
		db := hospital(t)
		reader := session(t, db, "beaufort")
		if _, err := reader.View(); err != nil {
			t.Fatal(err)
		}
		res, err := session(t, db, "laporte").Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "pharyngitis"})
		if err != nil || res.Applied != 1 {
			t.Fatalf("write: %+v %v", res, err)
		}
		e0, m0 := evalShared.Count(), mat.Count()
		ctx, trace := tracer.StartTrace(context.Background(), "test_read")
		if err := read.run(ctx, reader); err != nil {
			t.Fatal(err)
		}
		trace.Finish()
		if de, dm := evalShared.Count()-e0, mat.Count()-m0; de != 0 || dm != 0 {
			t.Errorf("%s after a write: %d policy_evaluate_shared, %d view_materialize stages, want 0, 0", read.name, de, dm)
		}
		if parts := incrementalParts(t, trace.Export()); len(parts) != 1 || parts[0] != "perms" {
			t.Errorf("%s after a write: view_incremental parts %v, want [perms]", read.name, parts)
		}

		r0 := ruleEvals.Value()
		ctx, trace = tracer.StartTrace(context.Background(), "test_view")
		got, err := reader.ViewXMLCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		trace.Finish()
		if dr := ruleEvals.Value() - r0; dr != 0 {
			t.Errorf("%s, then view: the catch-up evaluated %d rules, want 0", read.name, dr)
		}
		if dm := mat.Count() - m0; dm != 0 {
			t.Errorf("%s, then view: %d view_materialize stages, want 0", read.name, dm)
		}
		if parts := incrementalParts(t, trace.Export()); len(parts) != 1 || parts[0] != "view" {
			t.Errorf("%s, then view: view_incremental parts %v, want [view]", read.name, parts)
		}
		if want, err := session(t, db, "beaufort").ViewXML(); err != nil || got != want {
			t.Errorf("%s, then view: caught-up view differs from a fresh one (%v)\n got: %s\nwant: %s", read.name, err, got, want)
		}
	}
}

// incrementalParts lists the part annotation of every view_incremental span
// in a trace, in order. It fails the test if a view_incremental span has
// a child span: the traced benchmark adds the stage time of every
// child stage, so they must not nest.
func incrementalParts(t *testing.T, ex *obs.TraceExport) []string {
	t.Helper()
	var parts []string
	var walk func(sp *obs.TraceSpan)
	walk = func(sp *obs.TraceSpan) {
		if sp.Name == "view_incremental" {
			parts = append(parts, sp.Attrs["part"])
			if len(sp.Children) > 0 {
				t.Errorf("view_incremental span has children: %+v", sp.Children)
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(ex.Root)
	return parts
}

// TestWarmQueryCountsNoDecisions: the read filter looks permissions up
// uncounted, so a warm auto query leaves xmlsec_policy_decisions_total
// alone, while a write's privilege checks still count.
func TestWarmQueryCountsNoDecisions(t *testing.T) {
	db := hospital(t)
	s := session(t, db, "laporte")
	if _, err := s.View(); err != nil {
		t.Fatal(err)
	}
	before := decisionCount()
	if _, err := s.Query("//diagnosis"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryValue("count(//service)"); err != nil {
		t.Fatal(err)
	}
	if after := decisionCount(); after != before {
		t.Fatalf("warm reads moved xmlsec_policy_decisions_total %d -> %d", before, after)
	}
	if _, err := s.Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "pharyngitis"}); err != nil {
		t.Fatal(err)
	}
	if after := decisionCount(); after == before {
		t.Fatal("a write's privilege checks did not move xmlsec_policy_decisions_total")
	}
}

// TestTransformDerivationFailureAudited: when the session's permissions
// cannot be derived, Transform records the failure with the request ID,
// as Query does.
func TestTransformDerivationFailureAudited(t *testing.T) {
	db := hospital(t)
	// A rule path that evaluates to a number fails every staff derivation.
	if err := db.Grant(policy.Read, "count(//diagnosis)", "staff"); err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithRequestID(context.Background(), "req-transform-fail")
	if _, err := session(t, db, "laporte").TransformCtx(ctx,
		`<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform"/>`); err == nil {
		t.Fatal("transform succeeded without derivable permissions")
	}
	for _, e := range db.Audit() {
		if e.ReqID == "req-transform-fail" {
			if e.Action != "transform" || !strings.HasPrefix(e.Outcome, "error: ") {
				t.Errorf("audit entry %+v, want a transform error", e)
			}
			return
		}
	}
	t.Fatal("failed transform not audited with its request id")
}
