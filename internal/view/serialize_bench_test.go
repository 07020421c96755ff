package view

import (
	"testing"

	"securexml/internal/workload"
)

// BenchmarkSerialize measures XML of a doctor's view of the 256-patient
// clinic document: the whole-document body a staff /view request returns.
func BenchmarkSerialize(b *testing.B) {
	d, err := workload.Hospital(workload.HospitalConfig{Patients: 256, RecordsPerPatient: 1})
	if err != nil {
		b.Fatal(err)
	}
	h, err := workload.HospitalHierarchy(256)
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.HospitalPolicy(h)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := p.Evaluate(d, h, "laporte")
	if err != nil {
		b.Fatal(err)
	}
	v := Materialize(d, pm)
	b.SetBytes(int64(len(v.Doc.XML())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serializeSink = v.Doc.XML()
	}
}

var serializeSink string
