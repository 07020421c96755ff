// Isolation of the shared grant masks, checked at run time: every user's
// Perms comes from one shared RuleCache, whose profile bases are built
// once and never written afterwards. One goroutine per user hammers its
// Perms with Rescore — over a clone of the document whose elements are
// all renamed, so the rescored cells differ from the shared ones and go
// to the overlay until it flattens into a fresh slice — while other
// goroutines keep evaluating through the same cache, and at the end a
// fresh differential Evaluate must still agree with EvaluateShared for
// every user — a write through to the shared masks would break the
// cell-for-cell oracle. Run under -race (make race) this also proves the
// cache tier is data-race free under the mixed workload.
package policy_test

import (
	"sync"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/xmltree"
)

func TestSharedMaskMutationIsolated(t *testing.T) {
	for _, kind := range ssKinds {
		t.Run(kind, func(t *testing.T) {
			d, h, p := ssEnv(t, 1, kind)
			cache := policy.NewRuleCache(p, d)
			users := h.Users()

			// Warm the shared cache and keep each user's Perms handle.
			perms := make(map[string]*policy.Perms, len(users))
			for _, u := range users {
				pm, err := cache.EvaluateShared(h, u)
				if err != nil {
					t.Fatalf("warm evaluate(%s): %v", u, err)
				}
				perms[u] = pm
			}
			// A later generation of the same lineage in which every
			// element is renamed: rescoring its nodes changes the cells.
			renamed := d.Clone()
			nodes := renamed.Nodes()
			for _, n := range nodes {
				if n.Kind() == xmltree.KindElement {
					if err := renamed.Rename(n, "renamed"); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Mutate every user's Perms through Rescore while other
			// sessions evaluate through the same cache.
			var wg sync.WaitGroup
			errs := make(chan error, 2*len(users))
			for _, u := range users {
				pm := perms[u]
				wg.Add(2)
				go func(u string, pm *policy.Perms) {
					defer wg.Done()
					if ne, ok := p.NodeEvaluator(h, u); ok {
						for _, n := range nodes {
							if err := ne.Rescore(pm, n); err != nil {
								errs <- err
								return
							}
						}
					}
				}(u, pm)
				go func(u string) {
					defer wg.Done()
					if _, err := cache.EvaluateShared(h, u); err != nil {
						errs <- err
					}
				}(u)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Differential oracle: the shared cache must still serve every
			// user the reference permissions — no Rescore above may
			// have written through to the shared masks.
			for _, u := range users {
				ref, err := p.Evaluate(d, h, u)
				if err != nil {
					t.Fatalf("reference evaluate(%s): %v", u, err)
				}
				got, err := cache.EvaluateShared(h, u)
				if err != nil {
					t.Fatalf("shared evaluate(%s): %v", u, err)
				}
				if diff := permsDiff(d, ref, got); diff != "" {
					t.Errorf("user %s after concurrent mask mutation: %s", u, diff)
				}
			}
		})
	}
}
