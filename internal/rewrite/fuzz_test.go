// FuzzRewrite: for random (policy seed, query text) pairs, every user's
// plan answer — empty, raw, or filtered under qfilter.ForPerms — must
// agree with the materialized view node-for-node: the same contract the
// differential oracle checks, under coverage-guided input generation
// instead of a fixed corpus. Odd seeds add the gate policy's explicit
// out-of-fragment and name-only rules on top of the random ones.
package rewrite_test

import (
	"testing"

	"securexml/internal/policy"
	"securexml/internal/rewrite"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xpath"
)

func FuzzRewrite(f *testing.F) {
	seeds := []struct {
		seed  int64
		query string
	}{
		{1, "//diagnosis"},
		{2, "/patients/*[name() = $USER]/descendant-or-self::node()"},
		{3, "count(//*[name() = 'RESTRICTED'])"},
		{4, "/patients/*[2]"},
		{5, "//service/preceding-sibling::*"},
	}
	for _, s := range seeds {
		f.Add(s.seed, s.query)
	}
	f.Fuzz(func(t *testing.T, seed int64, query string) {
		if seed < 0 {
			seed = -seed
		}
		d, err := workload.Hospital(workload.HospitalConfig{Patients: 3, RecordsPerPatient: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h, err := workload.HospitalHierarchy(3)
		if err != nil {
			t.Fatal(err)
		}
		p, err := randomPolicy(h, seed)
		if err != nil {
			t.Fatal(err)
		}
		users := []string{"beaufort", "laporte", "p0", "p1"}
		if seed%2 == 1 {
			gate, err := gatePolicy(h)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range gate.Rules() {
				if err := p.Add(h, policy.Rule{Effect: r.Effect, Privilege: r.Privilege, Path: r.Path, Subject: r.Subject, Priority: r.Priority}); err != nil {
					t.Fatal(err)
				}
			}
			users = append(append(users, "richard"), gateUsers...)
		}
		if _, err := xpath.Compile(query); err != nil {
			return // invalid query: every tier rejects it identically
		}
		eng := rewrite.NewEngine(p, h)
		for _, u := range users {
			pm, err := p.Evaluate(d, h, u)
			if err != nil {
				t.Fatal(err)
			}
			if diff := agreeWithView(eng.ProgramFor(u), d.Root(), pm, view.Materialize(d, pm), u, query); diff != "" {
				t.Fatal(diff)
			}
		}
	})
}
