package qfilter

import (
	"testing"

	"securexml/internal/policy"
	"securexml/internal/workload"
	"securexml/internal/xpath"
)

// BenchmarkForPermsSelect measures the filtered read the session path
// serves most queries with: one compiled query evaluated on the source
// under ForPerms, from every GOMAXPROCS goroutine at once, over
// permissions derived through a shared RuleCache (as sessions hold them).
// The parallel loop exposes any shared write on the filter's lookup path.
func BenchmarkForPermsSelect(b *testing.B) {
	d, err := workload.Hospital(workload.HospitalConfig{Patients: 256, RecordsPerPatient: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	d.Freeze()
	h, err := workload.HospitalHierarchy(256)
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.HospitalPolicy(h)
	if err != nil {
		b.Fatal(err)
	}
	cache := policy.NewRuleCache(p, d)
	query := xpath.MustCompile("//diagnosis")
	for _, user := range []string{"p7", "laporte"} {
		pm, err := cache.EvaluateShared(h, user)
		if err != nil {
			b.Fatal(err)
		}
		vars := xpath.Vars{"USER": xpath.String(user)}
		b.Run("user="+user, func(b *testing.B) {
			sec := ForPerms(pm)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := query.SelectFiltered(d.Root(), vars, sec); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
