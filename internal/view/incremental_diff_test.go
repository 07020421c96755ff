package view

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/qfilter"
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

// userState is one user's maintained permissions and node evaluator.
type userState struct {
	pm *policy.Perms
	ne *policy.NodeEvaluator
}

// initStates evaluates every user's permissions and collects their node
// evaluator.
func initStates(t *testing.T, d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy) map[string]*userState {
	t.Helper()
	states := make(map[string]*userState)
	for _, u := range h.Users() {
		pm, err := p.Evaluate(d, h, u)
		if err != nil {
			t.Fatal(err)
		}
		ne, ok := p.NodeEvaluator(h, u)
		if !ok {
			t.Fatalf("user %s: paper policy must be chain-only", u)
		}
		states[u] = &userState{pm: pm, ne: ne}
	}
	return states
}

// renderFiltered is the view as a session serves it: d serialized through
// the permission filter over pm, with no view document.
func renderFiltered(d *xmltree.Document, pm *policy.Perms) string {
	var b strings.Builder
	if err := d.Write(&b, xmltree.WriteOptions{Indent: "  ", Filter: qfilter.ForPerms(pm)}); err != nil {
		panic(err)
	}
	return b.String()
}

// diffCheck compares the view the maintained permissions render with the
// specification, Materialize over a full Evaluate, returning a
// description of the first divergence ("" when identical): every
// permission cell of d, then the serialized view.
func diffCheck(d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, u string, st *userState) (string, error) {
	fresh, err := p.Evaluate(d, h, u)
	if err != nil {
		return "", err
	}
	for _, n := range d.Nodes() {
		if got, want := st.pm.Mask(n), fresh.Mask(n); got != want {
			return fmt.Sprintf("cell %s (%s) = %04b, want %04b", n.IDString(), n.Label(), got, want), nil
		}
	}
	if got, want := renderFiltered(d, st.pm), Materialize(d, fresh).Doc.XML(); got != want {
		return fmt.Sprintf("serialization differs\nmaintained:\n%s\nfresh:\n%s", got, want), nil
	}
	return "", nil
}

// patch advances st's permissions over a chain of batches of touched
// subtree roots.
func patch(d *xmltree.Document, st *userState, chain [][]string) error {
	pm, err := st.ne.PatchCtx(context.Background(), d, st.pm, chain)
	if err != nil {
		return err
	}
	st.pm = pm
	return nil
}

// runSequence executes ops in order over a fresh environment, maintaining
// every user's permissions incrementally and diffing the view they render
// against the oracle. It returns the index and description of the first
// failure, or (-1, "").
//
//   - eager mode patches the permissions over every op's batch and diffs
//     after every op;
//   - lagging mode, the order a session that is not asked for anything
//     while others write produces, patches the permissions once over the
//     whole chain of batches at the end, then diffs.
func runSequence(t *testing.T, seed int64, ops []*xupdate.Op, lagging bool) (int, string) {
	t.Helper()
	d, h, p := diffEnv(t, seed)
	states := initStates(t, d, h, p)
	var chain [][]string
	for i, op := range ops {
		res, err := xupdate.Execute(d, op, nil)
		if err != nil {
			return i, fmt.Sprintf("execute: %v", err)
		}
		if lagging {
			chain = append(chain, res.Touched)
			continue
		}
		for _, u := range h.Users() {
			st := states[u]
			if err := patch(d, st, [][]string{res.Touched}); err != nil {
				return i, fmt.Sprintf("user %s: patch: %v", u, err)
			}
			diff, err := diffCheck(d, h, p, u, st)
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
		if err := patch(d, st, chain); err != nil {
			return last, fmt.Sprintf("user %s: patch over %d batches: %v", u, len(chain), err)
		}
		diff, err := diffCheck(d, h, p, u, st)
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			return last, fmt.Sprintf("user %s after the patch over %d batches: %s", u, len(chain), diff)
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

// TestIncrementalDifferentialOracle is the incremental maintenance's
// differential harness: seeded op streams from internal/workload run
// against the hospital document, and for every user in the hierarchy the
// incrementally patched permissions must equal a fresh Evaluate cell for
// cell, and the view they render through the permission filter must be
// byte-identical to a fresh Materialize — after every op in eager mode,
// and after one patch over the whole stream in lagging mode. On mismatch
// the greedily minimized op sequence is dumped.
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
