package view

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// diffConfig sizes the differential runs.
const (
	diffPatients = 8
	diffRecords  = 2
	diffOps      = 120
)

var diffSeeds = []int64{1, 2, 3, 4}

// diffEnv builds a fresh hospital document, hierarchy and paper policy.
func diffEnv(t *testing.T, seed int64) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	t.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: diffPatients, RecordsPerPatient: diffRecords, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(diffPatients)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.HospitalPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

// userState is one user's maintained view, perms and maintainer.
type userState struct {
	v  *View
	pm *policy.Perms
	m  *Maintainer
}

// initStates materializes every user's view and compiles their maintainer.
func initStates(t *testing.T, d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy) map[string]*userState {
	t.Helper()
	states := make(map[string]*userState)
	for _, u := range h.Users() {
		pm, err := p.Evaluate(d, h, u)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := NewMaintainer(p, h, u)
		if !ok {
			t.Fatalf("user %s: paper policy must be chain-only", u)
		}
		states[u] = &userState{v: Materialize(d, pm), pm: pm, m: m}
	}
	return states
}

// diffCheck compares a maintained view with a fresh materialization,
// returning a description of the first divergence ("" when identical):
// ids+labels+shape (xmltree.Equal), RESTRICTED and hidden accounting, and
// the serialized form.
func diffCheck(d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, u string, st *userState) (string, error) {
	fresh, err := freshView(d, h, p, u)
	if err != nil {
		return "", err
	}
	return viewDiff(st.v, fresh), nil
}

// freshView is the specification: Materialize over a full Evaluate.
func freshView(d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, u string) (*View, error) {
	pm, err := p.Evaluate(d, h, u)
	if err != nil {
		return nil, err
	}
	return Materialize(d, pm), nil
}

// viewDiff describes the first divergence of got from fresh, "" when
// identical.
func viewDiff(got, fresh *View) string {
	switch {
	case !xmltree.Equal(got.Doc, fresh.Doc):
		return fmt.Sprintf("tree differs\nmaintained:\n%s\nfresh:\n%s", got.Doc.Sketch(), fresh.Doc.Sketch())
	case got.Restricted != fresh.Restricted:
		return fmt.Sprintf("Restricted=%d want %d", got.Restricted, fresh.Restricted)
	case got.Hidden != fresh.Hidden:
		return fmt.Sprintf("Hidden=%d want %d", got.Hidden, fresh.Hidden)
	case got.SourceVersion != fresh.SourceVersion:
		return fmt.Sprintf("SourceVersion=%d want %d", got.SourceVersion, fresh.SourceVersion)
	case got.Doc.XML() != fresh.Doc.XML():
		return fmt.Sprintf("serialization differs\nmaintained:\n%s\nfresh:\n%s", got.Doc.XML(), fresh.Doc.XML())
	}
	return ""
}

// lagStep is one op of lagging mode for one user: the permissions half
// over the op's batch, checked by materializing the view from the patched
// permissions. The view itself stays behind; the batch joins the user's
// chain.
func lagStep(d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, u string, st *userState, chain *[][]xupdate.Delta, deltas []xupdate.Delta) (string, error) {
	pm, err := st.m.PatchPermsCtx(context.Background(), d, st.pm, [][]xupdate.Delta{deltas})
	if err != nil {
		return fmt.Sprintf("patch perms: %v", err), nil
	}
	st.pm = pm
	*chain = append(*chain, deltas)
	fresh, err := freshView(d, h, p, u)
	if err != nil {
		return "", err
	}
	if diff := viewDiff(Materialize(d, pm), fresh); diff != "" {
		return "permissions: " + diff, nil
	}
	return "", nil
}

// catchUp is the end of lagging mode for one user: the view half once
// over the whole chain, against the current permissions.
func catchUp(d *xmltree.Document, st *userState, chain [][]xupdate.Delta) error {
	v, err := st.m.CatchUpViewCtx(context.Background(), st.v, d, st.pm, chain)
	if err != nil {
		return err
	}
	st.v = v
	return nil
}

// runSequence executes ops in order over a fresh environment, maintaining
// every user's view incrementally and diffing against the oracle. It
// returns the index and description of the first failure, or (-1, "").
//
//   - eager mode applies both halves after every op (Apply) and diffs the
//     view after every op;
//   - lagging mode, the order a session that only reads through the
//     permission filter produces, patches the permissions batch by batch
//     (diffing the view they materialize after every op) and catches the
//     view up once over the whole chain at the end, then diffs it.
func runSequence(t *testing.T, seed int64, ops []*xupdate.Op, lagging bool) (int, string) {
	t.Helper()
	d, h, p := diffEnv(t, seed)
	states := initStates(t, d, h, p)
	chains := make(map[string][][]xupdate.Delta)
	for i, op := range ops {
		res, err := xupdate.Execute(d, op, nil)
		if err != nil {
			return i, fmt.Sprintf("execute: %v", err)
		}
		for _, u := range h.Users() {
			st := states[u]
			var diff string
			if lagging {
				chain := chains[u]
				diff, err = lagStep(d, h, p, u, st, &chain, res.Deltas)
				chains[u] = chain
			} else if err := st.m.Apply(st.v, d, st.pm, res.Deltas); err != nil {
				return i, fmt.Sprintf("user %s: apply: %v", u, err)
			} else {
				diff, err = diffCheck(d, h, p, u, st)
			}
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				return i, fmt.Sprintf("user %s after op %d (%s %s): %s", u, i, op.Kind, op.Select, diff)
			}
		}
	}
	if !lagging || len(ops) == 0 {
		return -1, ""
	}
	last := len(ops) - 1
	for _, u := range h.Users() {
		st := states[u]
		if err := catchUp(d, st, chains[u]); err != nil {
			return last, fmt.Sprintf("user %s: view catch-up over %d batches: %v", u, len(chains[u]), err)
		}
		diff, err := diffCheck(d, h, p, u, st)
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			return last, fmt.Sprintf("user %s after the view catch-up over %d batches: %s", u, len(chains[u]), diff)
		}
	}
	return -1, ""
}

// minimizeOps greedily drops ops while the sequence still fails, so a
// regression dump shows the shortest reproducer found.
func minimizeOps(t *testing.T, seed int64, ops []*xupdate.Op, lagging bool) []*xupdate.Op {
	t.Helper()
	cur := append([]*xupdate.Op(nil), ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			trial := append(append([]*xupdate.Op(nil), cur[:i]...), cur[i+1:]...)
			if idx, _ := runSequence(t, seed, trial, lagging); idx >= 0 {
				cur = trial
				changed = true
				i--
			}
		}
	}
	return cur
}

func dumpOps(ops []*xupdate.Op) string {
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

// TestIncrementalDifferentialOracle is the incremental view's differential
// harness: seeded op streams from internal/workload run against the
// hospital document, and the incrementally maintained view of every user
// in the hierarchy must be node-for-node identical (ids, labels,
// RESTRICTED flags, serialization) to a fresh Materialize — after every op
// in eager mode, and after the one view catch-up over the whole stream in
// lagging mode (whose permissions are checked after every op). On
// mismatch the greedily minimized op sequence is dumped.
func TestIncrementalDifferentialOracle(t *testing.T) {
	for _, seed := range diffSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Generate the op sequence once against a scratch document so
			// the failing sequence can be replayed verbatim.
			d, _, _ := diffEnv(t, seed)
			stream := workload.OpStream(workload.OpConfig{Doc: d, Seed: seed})
			var ops []*xupdate.Op
			for i := 0; i < diffOps; i++ {
				op, err := stream.Next()
				if err != nil {
					t.Fatal(err)
				}
				ops = append(ops, op)
				if _, err := xupdate.Execute(d, op, nil); err != nil {
					t.Fatalf("generating op %d: %v", i, err)
				}
			}
			for _, lagging := range []bool{false, true} {
				t.Run(map[bool]string{false: "eager", true: "lagging"}[lagging], func(t *testing.T) {
					if idx, diff := runSequence(t, seed, ops, lagging); idx >= 0 {
						minimized := minimizeOps(t, seed, ops[:idx+1], lagging)
						t.Fatalf("differential mismatch at op %d:\n%s\nminimized reproducer (%d ops, seed %d):\n%s",
							idx, diff, len(minimized), seed, dumpOps(minimized))
					}
				})
			}
		})
	}
}
