// Differential oracle for the shared-scan pipeline: EvaluateShared must
// agree with the reference per-rule Evaluate cell-for-cell — every node ×
// every privilege × every user — for the paper policy, the scaled policy
// and seeded randomized policies (which mix chain-only, $USER-dependent
// and out-of-fragment paths, so the rule cache, the shared profiles and
// the per-user overlays are all on the hook), across documents mutated by seeded
// workload.OpStream sequences. On mismatch the op sequence is greedily
// minimized, PR 4 style.
//
// External test package: workload imports policy, so the oracle cannot
// live inside it.
package policy_test

import (
	"fmt"
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

const (
	ssPatients   = 6
	ssRecords    = 2
	ssOps        = 60
	ssCheckEvery = 10
)

var (
	ssSeeds = []int64{1, 2, 3}
	ssKinds = []string{"paper", "scaled", "random"}
)

// ssEnv builds a fresh document, hierarchy and policy of the given kind.
func ssEnv(t *testing.T, seed int64, kind string) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	t.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: ssPatients, RecordsPerPatient: ssRecords, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(ssPatients)
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
	default:
		t.Fatalf("unknown policy kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

// randomPolicy draws rules from a path pool spanning all four quadrants of
// the shared-scan partition: (chain-only | fallback) × ($USER-independent
// | $USER-dependent). Priorities are strictly increasing per Add's
// invariant; seed rotates effects, privileges and subjects.
func randomPolicy(h *subject.Hierarchy, seed int64) (*policy.Policy, error) {
	paths := []string{
		"/patients",                            // chain, indep
		"//service",                            // chain, indep
		"//diagnosis/node()",                   // chain, indep
		"/patients/*/record",                   // chain, indep
		"//record[starts-with(name(), 'rec')]", // chain pred, indep
		"/patients/*[name() = $USER]/descendant-or-self::node()", // chain, dep
		"/patients/*[name() = $USER]",                            // chain, dep
		"/patients/*[1]",                                         // positional pred: fallback, indep
		"//record[note]",                                         // location-path pred: fallback, indep
		"/patients/*[name() = $USER]/record[note]",               // fallback, dep
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

// permsDiff compares the two evaluations cell-for-cell over every node of
// the document and every privilege, returning "" when identical.
func permsDiff(d *xmltree.Document, ref, got *policy.Perms) string {
	for _, n := range d.Nodes() {
		for _, priv := range policy.Privileges {
			r, g := ref.Has(n, priv), got.Has(n, priv)
			if r != g {
				return fmt.Sprintf("node %s (%s) priv %s: reference=%v shared=%v", n.IDString(), n.Label(), priv, r, g)
			}
		}
	}
	return ""
}

// runShared replays ops over a fresh environment, diffing EvaluateShared
// against Evaluate for every user at every checkpoint. A cache is bound to
// one document state, so each checkpoint builds a fresh one that every
// user shares. Returns the index of the op whose checkpoint failed (-1 on
// success).
func runShared(t *testing.T, seed int64, kind string, ops []*xupdate.Op) (int, string) {
	t.Helper()
	d, h, p := ssEnv(t, seed, kind)
	check := func() string {
		cache := policy.NewRuleCache(p, d)
		for _, u := range h.Users() {
			ref, err := p.Evaluate(d, h, u)
			if err != nil {
				return fmt.Sprintf("reference evaluate(%s): %v", u, err)
			}
			got, err := cache.EvaluateShared(h, u)
			if err != nil {
				return fmt.Sprintf("shared evaluate(%s): %v", u, err)
			}
			if diff := permsDiff(d, ref, got); diff != "" {
				return fmt.Sprintf("user %s: %s", u, diff)
			}
			// A cache of this user's own must agree too (nothing reused
			// across users, rules still share document walks).
			got2, err := policy.NewRuleCache(p, d).EvaluateShared(h, u)
			if err != nil {
				return fmt.Sprintf("shared evaluate(%s, fresh cache): %v", u, err)
			}
			if diff := permsDiff(d, ref, got2); diff != "" {
				return fmt.Sprintf("user %s (fresh cache): %s", u, diff)
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
		if (i+1)%ssCheckEvery != 0 && i != len(ops)-1 {
			continue
		}
		if diff := check(); diff != "" {
			return i, fmt.Sprintf("after op %d (%s %s): %s", i, op.Kind, op.Select, diff)
		}
	}
	return -1, ""
}

// minimizeSharedOps greedily drops ops while the sequence still fails.
func minimizeSharedOps(t *testing.T, seed int64, kind string, ops []*xupdate.Op) []*xupdate.Op {
	t.Helper()
	cur := append([]*xupdate.Op(nil), ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			trial := append(append([]*xupdate.Op(nil), cur[:i]...), cur[i+1:]...)
			if idx, _ := runShared(t, seed, kind, trial); idx >= 0 {
				cur = trial
				changed = true
				i--
			}
		}
	}
	return cur
}

func dumpSharedOps(ops []*xupdate.Op) string {
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

func TestSharedScanDifferentialOracle(t *testing.T) {
	for _, kind := range ssKinds {
		for _, seed := range ssSeeds {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				d, _, _ := ssEnv(t, seed, kind)
				stream := workload.OpStream(workload.OpConfig{Doc: d, Seed: seed})
				var ops []*xupdate.Op
				for i := 0; i < ssOps; i++ {
					op, err := stream.Next()
					if err != nil {
						t.Fatal(err)
					}
					ops = append(ops, op)
					if _, err := xupdate.Execute(d, op, nil); err != nil {
						t.Fatalf("generating op %d: %v", i, err)
					}
				}
				if idx, diff := runShared(t, seed, kind, ops); idx >= 0 {
					minimized := minimizeSharedOps(t, seed, kind, ops[:idx+1])
					t.Fatalf("shared-scan mismatch at op %d:\n%s\nminimized reproducer (%d ops, %s seed %d):\n%s",
						idx, diff, len(minimized), kind, seed, dumpSharedOps(minimized))
				}
			})
		}
	}
}

// TestRuleCacheReuse pins the cross-user sharing behavior itself: after
// one user's evaluation fills the cache, a second user's evaluation over
// the same snapshot must serve the $USER-independent sets from it (and
// still agree with the reference).
func TestRuleCacheReuse(t *testing.T) {
	d, h, p := ssEnv(t, 1, "paper")
	cache := policy.NewRuleCache(p, d)
	users := []string{"beaufort", "laporte", "richard", "p0", "p1"}
	for _, u := range users {
		ref, err := p.Evaluate(d, h, u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cache.EvaluateShared(h, u)
		if err != nil {
			t.Fatal(err)
		}
		if diff := permsDiff(d, ref, got); diff != "" {
			t.Fatalf("user %s: %s", u, diff)
		}
	}
}
