package view

import (
	"io"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
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

// BenchmarkWriteFiltered measures what a /view request serializes: the
// source written through the permission filter over the user's shared-scan
// permissions, with no view document —
// a patient of the 512-patient document (a tiny view of a wide root) and
// a doctor of the 256-patient document (most of it).
func BenchmarkWriteFiltered(b *testing.B) {
	for _, bc := range []struct {
		name     string
		patients int
		user     string
	}{
		{"patient-512", 512, "p7"},
		{"doctor-256", 256, "laporte"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := workload.Hospital(workload.HospitalConfig{Patients: bc.patients, RecordsPerPatient: 1})
			if err != nil {
				b.Fatal(err)
			}
			h, err := workload.HospitalHierarchy(bc.patients)
			if err != nil {
				b.Fatal(err)
			}
			p, err := workload.HospitalPolicy(h)
			if err != nil {
				b.Fatal(err)
			}
			// The shared scan, as a session derives its permissions: a
			// patient's own cells sit in the overlay over the profile base.
			pm, err := policy.NewRuleCache(p, d).EvaluateShared(h, bc.user)
			if err != nil {
				b.Fatal(err)
			}
			if got, want := renderFiltered(d, pm), Materialize(d, pm).Doc.XML(); got != want {
				b.Fatalf("filtered serialization differs from the materialized view\n got: %s\nwant: %s", got, want)
			}
			b.SetBytes(int64(len(renderFiltered(d, pm))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := xmltree.WriteOptions{Indent: "  ", Filter: qfilter.ForPerms(pm)}
				if err := d.Write(io.Discard, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
