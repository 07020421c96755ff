// Cold-fleet cost of the shared scan, counted and timed. Axiom 14's
// $USER-independent rules select the same nodes for every user of a role
// (§4.3), so a fleet sharing one RuleCache evaluates each of them once,
// however many users the fleet has; only $USER-dependent rules cost one
// evaluation per user.
package policy_test

import (
	"fmt"
	"sync"
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
)

// fleetEnv builds the hospital document over n patients, its hierarchy
// plus the given extra users (name → role), and the paper policy.
func fleetEnv(tb testing.TB, n int, extra map[string]string) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	tb.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: n, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(n)
	if err != nil {
		tb.Fatal(err)
	}
	for user, role := range extra {
		if err := h.AddUser(user, role); err != nil {
			tb.Fatal(err)
		}
	}
	p, err := workload.HospitalPolicy(h)
	if err != nil {
		tb.Fatal(err)
	}
	d.Freeze()
	return d, h, p
}

// coldFleet evaluates users in turn through one fresh RuleCache.
func coldFleet(tb testing.TB, d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, users []string) {
	tb.Helper()
	cache := policy.NewRuleCache(p, d)
	for _, u := range users {
		if _, err := cache.EvaluateShared(h, u); err != nil {
			tb.Fatal(err)
		}
	}
}

// coldFleetConcurrent evaluates users through one fresh RuleCache, one
// goroutine per user, all started together.
func coldFleetConcurrent(tb testing.TB, d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, users []string) {
	tb.Helper()
	cache := policy.NewRuleCache(p, d)
	start := make(chan struct{})
	errs := make(chan error, len(users))
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := cache.EvaluateShared(h, u); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		tb.Fatal(err)
	}
}

// TestSharedScanRuleEvalsIndependentOfFleet counts rule evaluations
// (xmlsec_policy_rule_evals_total) over cold fleets sharing one RuleCache.
// The paper policy gives a secretary five $USER-independent rules and a
// patient one, plus the $USER-dependent read of its own record. So N
// secretaries cost 5 evaluations and N patients 1+N, where Evaluate per
// user costs 5N and 2N. The count is the same when the N users start
// together: a profile is built once under the cache lock and the other
// cold users wait for it instead of scanning too.
func TestSharedScanRuleEvalsIndependentOfFleet(t *testing.T) {
	evals := obs.Default().Counter("xmlsec_policy_rule_evals_total")
	for _, n := range []int{8, 64} {
		secretaries := make([]string, n)
		patients := make([]string, n)
		extra := make(map[string]string, n)
		for i := range secretaries {
			secretaries[i] = fmt.Sprintf("s%d", i)
			patients[i] = fmt.Sprintf("p%d", i)
			extra[secretaries[i]] = "secretary"
		}
		d, h, p := fleetEnv(t, n, extra)
		for _, fleet := range []struct {
			name  string
			users []string
			want  uint64
		}{
			{"secretaries", secretaries, 5},
			{"patients", patients, uint64(1 + n)},
		} {
			for _, run := range []struct {
				mode string
				fn   func(testing.TB, *xmltree.Document, *subject.Hierarchy, *policy.Policy, []string)
			}{
				{"sequential", coldFleet},
				{"concurrent", coldFleetConcurrent},
			} {
				n0 := evals.Value()
				run.fn(t, d, h, p, fleet.users)
				if got := evals.Value() - n0; got != fleet.want {
					t.Errorf("N=%d %s %s: %d rule evaluations, want %d", n, fleet.name, run.mode, got, fleet.want)
				}
			}
		}
	}
}

// TestRuleCacheHitAccounting pins the cache telemetry: each
// $USER-independent rule counts once per evaluation, as a hit when its
// node set was already cached and as a miss when the evaluation scanned
// it. A patient's profile holds one such rule, so a cold patient counts
// one miss and no hit, and every later patient of the same cache one hit.
func TestRuleCacheHitAccounting(t *testing.T) {
	hits := obs.Default().Counter("xmlsec_policy_rulecache_hits_total")
	misses := obs.Default().Counter("xmlsec_policy_rulecache_misses_total")
	d, h, p := fleetEnv(t, 4, nil)
	cache := policy.NewRuleCache(p, d)
	for i, want := range []struct{ hits, misses uint64 }{
		{0, 1}, // cold profile
		{1, 0}, // warm: same profile, another patient
		{1, 0},
		{1, 0}, // warm: the same patient again
	} {
		user := fmt.Sprintf("p%d", min(i, 2))
		h0, m0 := hits.Value(), misses.Value()
		if _, err := cache.EvaluateShared(h, user); err != nil {
			t.Fatal(err)
		}
		if got := (struct{ hits, misses uint64 }{hits.Value() - h0, misses.Value() - m0}); got != want {
			t.Errorf("evaluation %d (%s): +%d hits/+%d misses, want +%d/+%d",
				i, user, got.hits, got.misses, want.hits, want.misses)
		}
	}
}

// TestColdPatientAllocations bounds the allocations of one patient's
// evaluation through a warm RuleCache, the per-user work of a cold fleet:
// the $USER-dependent rule /patients/*[name() = $USER] tests every patient
// element, and the test allocates nothing per candidate, so the count
// stays under a fixed bound on 125 patients and on 1,000.
func TestColdPatientAllocations(t *testing.T) {
	const bound = 64
	for _, n := range []int{125, 1000} {
		d, h, p := fleetEnv(t, n, nil)
		cache := policy.NewRuleCache(p, d)
		if _, err := cache.EvaluateShared(h, "p0"); err != nil {
			t.Fatal(err)
		}
		var err error
		allocs := testing.AllocsPerRun(10, func() {
			_, err = cache.EvaluateShared(h, "p1")
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d patients: %.0f allocations per patient evaluation", n, allocs)
		if allocs > bound {
			t.Errorf("%d patients: %.0f allocations per patient evaluation, want at most %d", n, allocs, bound)
		}
	}
}

// BenchmarkEvaluateShared times a cold fleet of 8 over 1,000 patients,
// cache construction and fill included: staff (every applicable rule
// $USER-independent) and patients (one $USER-dependent rule each).
func BenchmarkEvaluateShared(b *testing.B) {
	staff := map[string]string{
		"s1": "secretary", "s2": "secretary",
		"d1": "doctor", "d2": "doctor",
		"e1": "epidemiologist",
	}
	d, h, p := fleetEnv(b, 1000, staff)
	for _, fleet := range []struct {
		name  string
		users []string
	}{
		{"staff", []string{"beaufort", "laporte", "richard", "s1", "s2", "d1", "d2", "e1"}},
		{"patients", []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}},
	} {
		b.Run("fleet="+fleet.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coldFleet(b, d, h, p, fleet.users)
			}
		})
	}
}
