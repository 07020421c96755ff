package logicmodel

// Metamorphic extension of the E9 equivalence suite: after a secured write,
// the view materialized from *incrementally maintained* permissions
// (policy.NodeEvaluator.PatchCtx patching previously evaluated permissions
// over the executor's touched subtree roots) must equal the Datalog
// derivation of the view axioms 15–17 evaluated over the axiom-18–25
// post-update database.
// This closes the loop between the two implementations: the native fast
// path and the logic model must agree not just on fresh evaluations but on
// patched ones.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// maintainAndCompare evaluates every user's permissions on d, executes op
// on a clone as writer via the secured executor, patches the permissions
// over the touched roots it reports, and compares the view materialized
// from them against the logic model's node_view facts derived from the
// post-update clone. It returns the post-update clone so callers can chain
// further ops.
func maintainAndCompare(t *testing.T, tag string, d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, writer string, op *xupdate.Op) *xmltree.Document {
	t.Helper()
	type state struct {
		pm *policy.Perms
		ne *policy.NodeEvaluator
	}
	states := make(map[string]*state)
	for _, u := range h.Users() {
		pm, err := p.Evaluate(d, h, u)
		if err != nil {
			t.Fatal(err)
		}
		ne, ok := p.NodeEvaluator(h, u)
		if !ok {
			t.Fatalf("%s: user %s: policy must be chain-only for the patch", tag, u)
		}
		states[u] = &state{pm: pm, ne: ne}
	}
	clone := d.Clone()
	res, _, err := accessExecute(clone, h, p, writer, op)
	if err != nil {
		t.Fatalf("%s: execute: %v", tag, err)
	}
	for _, u := range h.Users() {
		st := states[u]
		pm, err := st.ne.PatchCtx(context.Background(), clone, st.pm, [][]string{res.Touched})
		if err != nil {
			t.Fatalf("%s: user %s: patch: %v", tag, u, err)
		}
		m, err := Build(clone, h, p, u)
		if err != nil {
			t.Fatal(err)
		}
		compareViewToLogic(t, fmt.Sprintf("%s: user %s", tag, u), view.Materialize(clone, pm), m.ViewFacts())
	}
	return clone
}

// compareViewToLogic requires the maintained view and the logic model's
// node_view facts to contain exactly the same (id, label) pairs.
func compareViewToLogic(t *testing.T, tag string, v *view.View, logic map[string]string) {
	t.Helper()
	native := make(map[string]string)
	for _, n := range v.Doc.Nodes() {
		native[n.ID().String()] = n.Label()
	}
	if len(native) != len(logic) {
		t.Errorf("%s: view sizes differ: maintained %d, logic %d", tag, len(native), len(logic))
	}
	for id, label := range native {
		if logic[id] != label {
			t.Errorf("%s: node_view(%s): maintained %q, logic %q", tag, id, label, logic[id])
		}
	}
	for id := range logic {
		if _, ok := native[id]; !ok {
			t.Errorf("%s: logic view has node %s the maintained view lacks", tag, id)
		}
	}
}

// TestMetamorphicPaperMaintainedView replays the paper write scenario
// (the same op tables as the direct equivalence tests) and checks every
// user's view of incrementally maintained permissions against the Datalog
// axioms.
func TestMetamorphicPaperMaintainedView(t *testing.T) {
	for _, tc := range []struct {
		writer string
		op     *xupdate.Op
	}{
		{"beaufort", &xupdate.Op{Kind: xupdate.Rename, Select: "/patients/*", NewValue: "patient"}},
		{"laporte", &xupdate.Op{Kind: xupdate.Rename, Select: "//diagnosis", NewValue: "dx"}},
		{"robert", &xupdate.Op{Kind: xupdate.Rename, Select: "/patients/robert", NewValue: "me"}},
		{"laporte", &xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: "seen"}},
		{"beaufort", &xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: "leak"}},
		{"richard", &xupdate.Op{Kind: xupdate.Update, Select: "/patients/RESTRICTED", NewValue: "x"}},
		{"laporte", &xupdate.Op{Kind: xupdate.Remove, Select: "//diagnosis/node()"}},
		{"beaufort", &xupdate.Op{Kind: xupdate.Remove, Select: "/patients/franck"}},
		{"robert", &xupdate.Op{Kind: xupdate.Remove, Select: "/patients/robert"}},
		{"beaufort", mkInsert(t, xupdate.Append, "/patients")},
		{"laporte", mkInsert(t, xupdate.Append, "//diagnosis")},
		{"robert", mkInsert(t, xupdate.Append, "/patients/robert")},
		{"beaufort", mkInsert(t, xupdate.InsertBefore, "/patients/franck")},
		{"beaufort", mkInsert(t, xupdate.InsertAfter, "/patients/franck/service")},
	} {
		d, h, p := paperEnv(t)
		tag := fmt.Sprintf("%s %s by %s", tc.op.Kind, tc.op.Select, tc.writer)
		maintainAndCompare(t, tag, d, h, p, tc.writer, tc.op)
	}
}

// TestMetamorphicPaperOpChain chains several paper writes on one document,
// re-checking the axiom equivalence after every step (each step starts
// from the previous step's post-update database).
func TestMetamorphicPaperOpChain(t *testing.T) {
	d, h, p := paperEnv(t)
	for i, tc := range []struct {
		writer string
		op     *xupdate.Op
	}{
		{"laporte", &xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: "reviewed"}},
		{"laporte", mkInsert(t, xupdate.Append, "//diagnosis")},
		{"robert", &xupdate.Op{Kind: xupdate.Rename, Select: "/patients/robert", NewValue: "me"}},
		{"beaufort", &xupdate.Op{Kind: xupdate.Remove, Select: "/patients/franck/service"}},
	} {
		tag := fmt.Sprintf("chain step %d: %s %s by %s", i, tc.op.Kind, tc.op.Select, tc.writer)
		d = maintainAndCompare(t, tag, d, h, p, tc.writer, tc.op)
	}
}

// TestMetamorphicRandomMaintainedView fuzzes documents, policies and write
// ops: after each secured write the views of u1's and u2's maintained
// permissions must match the Datalog view derivation over the post-update database.
func TestMetamorphicRandomMaintainedView(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	sels := []string{"//a", "//diagnosis", "/root/*", "//b", "//c/node()"}
	for i := 0; i < 15; i++ {
		d := randomDoc(t, rng)
		h := randomHierarchy(t)
		p := randomPolicy(t, rng, h)
		var op *xupdate.Op
		switch rng.Intn(4) {
		case 0:
			op = &xupdate.Op{Kind: xupdate.Rename, Select: sels[rng.Intn(len(sels))], NewValue: "renamed"}
		case 1:
			op = &xupdate.Op{Kind: xupdate.Update, Select: sels[rng.Intn(len(sels))], NewValue: "updated"}
		case 2:
			op = mkInsert(t, xupdate.Append, sels[rng.Intn(len(sels))])
		default:
			op = &xupdate.Op{Kind: xupdate.Remove, Select: sels[rng.Intn(len(sels))]}
		}
		tag := fmt.Sprintf("iter %d: %s %s", i, op.Kind, op.Select)
		maintainAndCompare(t, tag, d, h, p, "u2", op)
	}
}
