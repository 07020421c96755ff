package policy_test

import (
	"testing"

	"securexml/internal/policy"
	"securexml/internal/xmltree"
)

// BenchmarkRescore times the write-side cell patch that incremental
// maintenance runs for each session after a write: Perms.Clone, then
// NodeEvaluator.Rescore over the touched subtree. The write is a record
// appended under p7 on a clone of the 256-patient hospital document (a
// new generation), so every rescored cell belongs to a node created after
// the evaluation; a doctor reads it (overlay writes), a patient other
// than p7 does not (cells equal to the base's, no overlay entry).
func BenchmarkRescore(b *testing.B) {
	d, h, p := fleetEnv(b, 256, nil)
	next := d.Clone()
	target := next.RootElement().Children()[7]
	rec, err := xmltree.ParseString(`<record><note>visit 9: angina</note><note>follow-up</note></record>`, xmltree.ParseOptions{})
	if err != nil {
		b.Fatal(err)
	}
	top, err := next.Graft(target, xmltree.GraftAppend, rec.RootElement())
	if err != nil {
		b.Fatal(err)
	}
	touched := top.Subtree()
	cache := policy.NewRuleCache(p, d)
	for _, user := range []string{"laporte", "p8"} {
		pm, err := cache.EvaluateShared(h, user)
		if err != nil {
			b.Fatal(err)
		}
		ne, ok := p.NodeEvaluator(h, user)
		if !ok {
			b.Fatalf("%s: the hospital policy should be chain-only", user)
		}
		b.Run("user="+user, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := pm.Clone()
				for _, n := range touched {
					if err := ne.Rescore(c, n); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
