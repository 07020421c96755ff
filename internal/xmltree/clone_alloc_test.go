package xmltree_test

import (
	"testing"

	"securexml/internal/workload"
	"securexml/internal/xmltree"
)

func cloneBenchDoc(tb testing.TB) *xmltree.Document {
	tb.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: 256, RecordsPerPatient: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestCloneAllocsBoundedByNames pins Clone's allocation profile: one arena,
// one shared child/attribute backing array and presized indexes, so the
// count grows with the distinct element names (one presized set each),
// not with the node count.
func TestCloneAllocsBoundedByNames(t *testing.T) {
	d := cloneBenchDoc(t)
	names := map[string]bool{}
	for _, n := range d.Nodes() {
		if n.Kind() == xmltree.KindElement {
			names[n.Name()] = true
		}
	}
	allocs := testing.AllocsPerRun(20, func() { d.Clone() })
	bound := float64(2*len(names) + 64)
	t.Logf("%d nodes, %d element names: %.0f allocations per Clone (bound %.0f)", d.Len(), len(names), allocs, bound)
	if allocs > bound {
		t.Fatalf("Clone allocated %.0f times for %d nodes and %d element names; want at most %.0f",
			allocs, d.Len(), len(names), bound)
	}
}

// BenchmarkClone copies the 256-patient clinic document, the copy a
// group-commit round and a view snapshot make.
func BenchmarkClone(b *testing.B) {
	d := cloneBenchDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = d.Clone()
	}
}

var cloneSink *xmltree.Document
