package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/view"
)

// warmViews reads every user's view once, so each session holds current
// permissions, and returns the views.
func warmViews(t *testing.T, db *Database, users []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(users))
	for _, u := range users {
		x, err := session(t, db, u).ViewXML()
		if err != nil {
			t.Fatal(err)
		}
		out[u] = x
	}
	return out
}

// evaluations returns how many policy evaluations, shared or not, have run.
func evaluations() uint64 {
	return obs.Stage("policy_evaluate").Count() + obs.Stage("policy_evaluate_shared").Count()
}

// wantFreshView fails unless user's view equals the view of a fresh
// policy.Evaluate on the current generation.
func wantFreshView(t *testing.T, db *Database, user, got string) {
	t.Helper()
	g := db.gen()
	pm, err := g.policy.Evaluate(g.doc, g.subjects, user)
	if err != nil {
		t.Fatal(err)
	}
	if want := view.Materialize(g.doc, pm).Doc.XML(); got != want {
		t.Errorf("%s: view differs from Materialize(Evaluate)\n got: %s\nwant: %s", user, got, want)
	}
}

// TestNewSubjectKeepsWarmSessions: adding a user or a role gives no
// existing subject a new ancestor (axioms 11 and 12), so it keeps the
// policy epoch, and every warm session reads its cached permissions with
// no policy evaluation. They equal a fresh Evaluate, and the new user
// logs in and sees the view Evaluate gives it.
func TestNewSubjectKeepsWarmSessions(t *testing.T) {
	db := hospital(t)
	users := []string{"beaufort", "laporte", "richard", "robert", "franck"}
	warmViews(t, db, users)
	epoch, seq := db.gen().epoch, db.gen().seq
	if err := db.AddUser("newbie", "patient"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRole("nurse", "staff"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUser("nightnurse", "nurse"); err != nil {
		t.Fatal(err)
	}
	g := db.gen()
	if g.seq != seq+3 || g.epoch != epoch {
		t.Fatalf("after three new subjects: seq %d epoch %d, want seq %d and epoch %d unchanged", g.seq, g.epoch, seq+3, epoch)
	}
	e0 := evaluations()
	views := warmViews(t, db, users)
	if de := evaluations() - e0; de != 0 {
		t.Errorf("warm sessions after new subjects ran %d policy evaluations, want 0", de)
	}
	for _, u := range users {
		wantFreshView(t, db, u, views[u])
	}
	for _, u := range []string{"newbie", "nightnurse"} {
		x, err := session(t, db, u).ViewXML()
		if err != nil {
			t.Fatal(err)
		}
		wantFreshView(t, db, u, x)
	}
}

// TestPermChangingOpsDiscardWarmSessions: every admin change that can
// alter an existing subject's perm moves the policy epoch, and a document
// replacement moves the document generation; either way every warm
// session evaluates the policy again and sees the new state.
func TestPermChangingOpsDiscardWarmSessions(t *testing.T) {
	users := []string{"beaufort", "laporte", "richard", "robert", "franck"}
	for _, tc := range []struct {
		name   string
		change func(db *Database) error
	}{
		{"grant", func(db *Database) error { return db.Grant(policy.Read, "//diagnosis/node()", "secretary") }},
		{"revoke", func(db *Database) error { return db.Revoke(policy.Read, "//service", "staff") }},
		{"add-rule", func(db *Database) error {
			return db.AddRule(policy.Rule{Effect: policy.Deny, Privilege: policy.Read, Path: "//diagnosis", Subject: "patient", Priority: 1000})
		}},
		{"load-xml", func(db *Database) error { return db.LoadXMLString(medXML) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := hospital(t)
			warmViews(t, db, users)
			before := db.gen()
			if err := tc.change(db); err != nil {
				t.Fatal(err)
			}
			if g := db.gen(); g.epoch == before.epoch && g.docGen == before.docGen {
				t.Fatalf("%s moved neither the policy epoch nor the document generation", tc.name)
			}
			e0 := evaluations()
			views := warmViews(t, db, users)
			if de := evaluations() - e0; de != uint64(len(users)) {
				t.Errorf("after %s: %d policy evaluations, want one per warm session (%d)", tc.name, de, len(users))
			}
			for _, u := range users {
				wantFreshView(t, db, u, views[u])
			}
		})
	}
}

// patientFleet returns a database whose published hierarchy holds the
// patient role and n patients, added as one private hierarchy and
// installed whole, and that hierarchy.
func patientFleet(tb testing.TB, n int) (*Database, *subject.Hierarchy) {
	tb.Helper()
	h := subject.NewHierarchy()
	if err := h.AddRole("patient"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := h.AddUser(fmt.Sprintf("p%d", i), "patient"); err != nil {
			tb.Fatal(err)
		}
	}
	db := New()
	g := db.gen()
	db.install(g.doc, h, g.policy)
	return db, h
}

// addUserAllocs returns the median bytes and allocations of one AddUser on
// a database of n patients.
func addUserAllocs(t *testing.T, n int) (bytes, mallocs uint64) {
	t.Helper()
	db, _ := patientFleet(t, n)
	var before, after runtime.MemStats
	bs, ms := make([]uint64, 21), make([]uint64, 21)
	for i := range bs {
		runtime.ReadMemStats(&before)
		err := db.AddUser(fmt.Sprintf("new%d", i), "patient")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bs[i], ms[i] = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	}
	slices.Sort(bs)
	slices.Sort(ms)
	return bs[len(bs)/2], ms[len(ms)/2]
}

// TestAddUserCostIsFlat: one AddUser copies the path to one trie leaf,
// not the hierarchy, so its bytes and allocations stay flat as the
// hierarchy grows eightfold.
func TestAddUserCostIsFlat(t *testing.T) {
	smallB, smallM := addUserAllocs(t, 1024)
	largeB, largeM := addUserAllocs(t, 8192)
	t.Logf("AddUser: %d B and %d allocations at 1k users, %d B and %d at 8k", smallB, smallM, largeB, largeM)
	if largeB >= 2*smallB || largeM >= 2*smallM {
		t.Errorf("AddUser at 8k users allocates %d B in %d allocations, at 1k %d B in %d: want under 2x",
			largeB, largeM, smallB, smallM)
	}
}

// TestHierarchyReadsDuringAddUser runs Hierarchy, Users and Stats readers
// against a stream of AddUser commits (run it under -race): every reader
// sees a hierarchy that only grows, and its writes to the copy Hierarchy
// returns never reach the published one.
func TestHierarchyReadsDuringAddUser(t *testing.T) {
	db, _ := patientFleet(t, 256)
	const adds = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				h := db.Hierarchy()
				n := len(h.Users())
				if n < last {
					t.Errorf("users went from %d to %d", last, n)
					return
				}
				last = n
				if got := len(db.Users()); got < n {
					t.Errorf("Users() = %d after a hierarchy of %d", got, n)
					return
				}
				if err := h.AddUser(fmt.Sprintf("private%d", n), "patient"); err != nil {
					t.Error(err)
					return
				}
				if db.Hierarchy().Exists(fmt.Sprintf("private%d", n)) {
					t.Error("a write to a clone reached the published hierarchy")
					return
				}
				_ = db.Stats()
			}
		}()
	}
	for i := 0; i < adds; i++ {
		if err := db.AddUser(fmt.Sprintf("late%d", i), "patient"); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if got := len(db.Users()); got != 256+adds {
		t.Errorf("%d users, want %d", got, 256+adds)
	}
}

// BenchmarkAddUser times one AddUser commit on a database of 1k and 8k
// patients. Every 256 additions the benchmark reinstalls the n-patient
// hierarchy (untimed), so the size stays near n. Run with -benchmem.
func BenchmarkAddUser(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			db, h := patientFleet(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					b.StopTimer()
					g := db.gen()
					db.install(g.doc, h, g.policy)
					b.StartTimer()
				}
				if err := db.AddUser(fmt.Sprintf("new%d", i), "patient"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
