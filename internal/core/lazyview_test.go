package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xupdate"
)

// workloadHospital builds the paper scenario over a workload.Hospital
// document of n patients (one record each) with patient users p0..p(n-1).
func workloadHospital(tb testing.TB, n int) *Database {
	tb.Helper()
	d, err := workload.Hospital(workload.HospitalConfig{Patients: n, RecordsPerPatient: 1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	patients := make([]string, n)
	for i := range patients {
		patients[i] = fmt.Sprintf("p%d", i)
	}
	return hospitalOn(tb, workload.XML(d), patients...)
}

// rewriteDiagnosis has the doctor w rewrite p1's diagnosis: one publish
// with a one-node delta.
func rewriteDiagnosis(tb testing.TB, w *Session, i int) {
	tb.Helper()
	res, err := w.Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/p1/diagnosis", NewValue: fmt.Sprintf("dx%d", i)})
	if err != nil || res.Applied != 1 {
		tb.Fatalf("write %d: %+v %v", i, res, err)
	}
}

// TestLaggingViewRebuildsFromMaintainedPerms: a session that keeps
// reading through the permission filter while more than deltaLogCap
// batches publish patches its permissions on every read, so its next
// ViewXML renders the view from those permissions — no policy evaluation
// and no materialization — byte-identical to the specification's view.
func TestLaggingViewRebuildsFromMaintainedPerms(t *testing.T) {
	db := workloadHospital(t, 4)
	reader, writer := session(t, db, "laporte"), session(t, db, "laporte")
	if _, err := reader.ViewXML(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= deltaLogCap; i++ {
		rewriteDiagnosis(t, writer, i)
		if _, err := reader.Query("//diagnosis"); err != nil {
			t.Fatal(err)
		}
	}
	g := db.gen()
	if e := reader.entry; e.ver != g.ver() {
		t.Fatalf("reader's permissions at version %d, generation at %d", e.ver, g.ver())
	}

	evalShared, eval, mat := obs.Stage("policy_evaluate_shared"), obs.Stage("policy_evaluate"), obs.Stage("view_materialize")
	es0, e0, m0 := evalShared.Count(), eval.Count(), mat.Count()
	got, err := reader.ViewXML()
	if err != nil {
		t.Fatal(err)
	}
	if des, de, dm := evalShared.Count()-es0, eval.Count()-e0, mat.Count()-m0; des != 0 || de != 0 || dm != 0 {
		t.Errorf("view after %d publishes: %d policy_evaluate_shared, %d policy_evaluate and %d view_materialize stages, want none",
			deltaLogCap+1, des, de, dm)
	}
	pm, err := g.policy.Evaluate(g.doc, g.subjects, "laporte")
	if err != nil {
		t.Fatal(err)
	}
	if want := view.Materialize(g.doc, pm).Doc.XML(); got != want {
		t.Errorf("rendered view differs from Materialize(Evaluate)\n got: %s\nwant: %s", got, want)
	}
}

// warmQueryBytes returns the median bytes a doctor's auto query allocates
// right after another session's write, on a hospital of n patients. The
// writes and the reader's first view are set up outside the measurement;
// the median keeps a stray allocation elsewhere in the process out.
func warmQueryBytes(t *testing.T, n int) uint64 {
	t.Helper()
	db := workloadHospital(t, n)
	reader, writer := session(t, db, "laporte"), session(t, db, "laporte")
	if _, err := reader.Query("/patients/p1/diagnosis"); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	bytes := make([]uint64, 21)
	for i := range bytes {
		rewriteDiagnosis(t, writer, i)
		runtime.ReadMemStats(&before)
		if _, err := reader.Query("/patients/p1/diagnosis"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(bytes)
	return bytes[len(bytes)/2]
}

// TestWarmReadAllocsIndependentOfViewSize: a read after a write patches
// the reader's permissions in O(delta) — no copy of the view or of the
// whole grant map — so the bytes it allocates stay flat as the document,
// and with it the doctor's view, grows eightfold.
func TestWarmReadAllocsIndependentOfViewSize(t *testing.T) {
	small, large := warmQueryBytes(t, 64), warmQueryBytes(t, 512)
	t.Logf("warm query after a write: %d B at 64 patients, %d B at 512", small, large)
	if large >= 2*small {
		t.Errorf("warm query after a write allocates %d B at 512 patients, %d B at 64: want under 2x", large, small)
	}
}

// refusedWrites are writes the paper policy refuses on a workload.Hospital
// document: the secretary may not change a diagnosis, the doctor may
// delete only its content, and a patient may change nothing.
var refusedWrites = []struct {
	user string
	op   *xupdate.Op
}{
	{"beaufort", &xupdate.Op{Kind: xupdate.Update, Select: "/patients/p1/diagnosis", NewValue: "flu"}},
	{"laporte", &xupdate.Op{Kind: xupdate.Remove, Select: "/patients/p1/diagnosis"}},
	{"p1", &xupdate.Op{Kind: xupdate.Update, Select: "/patients/p1/diagnosis", NewValue: "flu"}},
}

// refusedWriteBytes returns the median bytes each of refusedWrites
// allocates on a hospital of n patients from a warm session, and fails
// the test if one applies or publishes a generation.
func refusedWriteBytes(t *testing.T, n int) []uint64 {
	t.Helper()
	db := workloadHospital(t, n)
	out := make([]uint64, len(refusedWrites))
	for i, w := range refusedWrites {
		s := session(t, db, w.user)
		if _, err := s.Query("/patients"); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		bytes := make([]uint64, 21)
		for j := range bytes {
			g := db.gen()
			runtime.ReadMemStats(&before)
			res, err := s.Update(w.op)
			runtime.ReadMemStats(&after)
			if err != nil || res.Applied != 0 || len(res.Skipped) == 0 {
				t.Fatalf("%s %s %s: %+v %v, want a refusal", w.user, w.op.Kind, w.op.Select, res, err)
			}
			if db.gen() != g {
				t.Fatalf("%s %s %s: a refused write published a generation", w.user, w.op.Kind, w.op.Select)
			}
			bytes[j] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(bytes)
		out[i] = bytes[len(bytes)/2]
	}
	return out
}

// TestRefusedWriteClonesNothing: a write the policy refuses selects and
// checks on the published generation and never takes the commit round's
// document copy, so it publishes nothing and the bytes it allocates stay
// flat as the document grows eightfold.
func TestRefusedWriteClonesNothing(t *testing.T) {
	small, large := refusedWriteBytes(t, 64), refusedWriteBytes(t, 512)
	for i, w := range refusedWrites {
		t.Logf("refused %s %s by %s: %d B at 64 patients, %d B at 512", w.op.Kind, w.op.Select, w.user, small[i], large[i])
		if large[i] >= 2*small[i] {
			t.Errorf("refused %s %s by %s allocates %d B at 512 patients, %d B at 64: want under 2x",
				w.op.Kind, w.op.Select, w.user, large[i], small[i])
		}
	}
}

// BenchmarkWriteAfterPublish times a write that follows another session's
// publish on a 256-patient hospital: the writer patches its permissions
// over the delta and selects on the published generation. An applied
// doctor update takes the round's document copy; a refused secretary
// update takes none. Run with -benchmem.
func BenchmarkWriteAfterPublish(b *testing.B) {
	for _, bc := range []struct {
		name, user string
		applied    int
	}{
		{"applied-doctor", "laporte", 1},
		{"refused-secretary", "beaufort", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			db := workloadHospital(b, 256)
			publisher, writer := session(b, db, "laporte"), session(b, db, bc.user)
			if _, err := writer.Query("/patients"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rewriteDiagnosis(b, publisher, i)
				b.StartTimer()
				res, err := writer.Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/p2/diagnosis", NewValue: fmt.Sprintf("w%d", i)})
				if err != nil || res.Applied != bc.applied {
					b.Fatalf("%s: %+v %v", bc.name, res, err)
				}
			}
		})
	}
}

// BenchmarkMultiOpApply times one Apply of eight applied updates, each
// to another patient's diagnosis, on 256 patients: one commit request
// whose later ops find the document changed by the ops before them. For
// the doctor the later ops patch the permissions over the op before's
// delta; a positional rule makes the "ineligible" doctor's policy not
// chain-only, so every later op re-evaluates the policy in full.
func BenchmarkMultiOpApply(b *testing.B) {
	for _, bc := range []struct {
		name       string
		ineligible bool
	}{{"doctor", false}, {"ineligible", true}} {
		b.Run(bc.name, func(b *testing.B) {
			db := workloadHospital(b, 256)
			if bc.ineligible {
				if err := db.Grant(policy.Read, "/patients/*[1]", "doctor"); err != nil {
					b.Fatal(err)
				}
			}
			writer := session(b, db, "laporte")
			if _, err := writer.Query("/patients"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var mods strings.Builder
				mods.WriteString(`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">`)
				for p := 2; p < 10; p++ {
					fmt.Fprintf(&mods, `<xupdate:update select="/patients/p%d/diagnosis">m%d</xupdate:update>`, p, i)
				}
				mods.WriteString(`</xupdate:modifications>`)
				results, err := writer.Apply(mods.String())
				if err != nil || len(results) != 8 || results[7].Applied != 1 {
					b.Fatalf("%+v %v", results, err)
				}
			}
		})
	}
}

// BenchmarkWarmReadAfterWrite times the read path a publish leaves behind:
// one write, then one auto query by a doctor and by a patient, each of
// which patches its session's permissions over the write's delta. Run with
// -benchmem; the bytes per op should not grow with the document.
func BenchmarkWarmReadAfterWrite(b *testing.B) {
	db := workloadHospital(b, 256)
	writer := session(b, db, "laporte")
	readers := []*Session{session(b, db, "laporte"), session(b, db, "p2")}
	for _, r := range readers {
		if _, err := r.View(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rewriteDiagnosis(b, writer, i)
		b.StartTimer()
		for _, r := range readers {
			if _, err := r.Query("/patients/p2/diagnosis"); err != nil {
				b.Fatal(err)
			}
		}
	}
}
