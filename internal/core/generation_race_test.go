// Generation-level concurrency properties of the copy-on-write core, all
// meant to run under -race: pinned generations are immutable snapshots
// even while group-commit churn publishes successors; the group-commit
// queue coalesces a round of writes into ONE published generation without
// losing any of them; and the clone-apply-publish executor is
// behavior-identical to the in-place unsecured executor (the differential
// oracle of the pre-COW design, re-run over the COW path).
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securexml/internal/policy"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// TestGenerationPinnedSnapshotIsolation: a reader that pins a generation
// keeps a fully stable snapshot — same version, same serialization, frozen
// document — no matter how much write and policy churn happens after the
// pin, and successive gen() loads observe a non-decreasing sequence.
func TestGenerationPinnedSnapshotIsolation(t *testing.T) {
	db := hospital(t)
	g0 := db.gen()
	xml0 := g0.doc.XML()
	ver0 := g0.ver()
	if !g0.doc.Frozen() {
		t.Fatal("published generation document is not frozen")
	}

	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		if err != nil {
			errs <- err
		}
	}

	// Readers: pin a fresh generation each round, read it twice with work
	// in between, and demand bit-for-bit stability plus seq monotonicity.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for i := 0; i < iters; i++ {
				g := db.gen()
				if g.seq < lastSeq {
					fail(fmt.Errorf("generation seq went backwards: %d after %d", g.seq, lastSeq))
					return
				}
				lastSeq = g.seq
				v := g.ver()
				if _, err := xpath.Select(g.doc, "//service", nil); err != nil {
					fail(err)
					return
				}
				if g.ver() != v {
					fail(fmt.Errorf("pinned generation version moved %d -> %d", v, g.ver()))
					return
				}
				if !g.doc.Frozen() {
					fail(fmt.Errorf("pinned generation document not frozen"))
					return
				}
			}
		}()
	}

	// Writers: the doctor rewrites diagnoses, the secretary grafts
	// patients — steady group-commit churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := db.Session("laporte")
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < iters; i++ {
			if _, err := s.Update(&xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: fmt.Sprintf("dx%d", i)}); err != nil {
				fail(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := db.Session("beaufort")
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < iters; i++ {
			frag, err := xmltree.ParseString(fmt.Sprintf("<g%d><service>s%d</service></g%d>", i, i, i), xmltree.ParseOptions{Fragment: true})
			if err != nil {
				fail(err)
				return
			}
			if _, err := s.Update(&xupdate.Op{Kind: xupdate.Append, Select: "/patients", Content: frag}); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Admin: epoch churn swaps the policy/subject components.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			if err := db.Grant(policy.Read, "//service", "staff"); err != nil {
				fail(err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The generation pinned before the storm is untouched by all of it.
	if g0.ver() != ver0 {
		t.Fatalf("pinned generation version moved %d -> %d", ver0, g0.ver())
	}
	if got := g0.doc.XML(); got != xml0 {
		t.Fatalf("pinned generation serialization changed under churn\nbefore:\n%s\nafter:\n%s", xml0, got)
	}
	if db.gen() == g0 {
		t.Fatal("churn published no new generation")
	}
}

// TestGroupCommitCoalescesRound stalls the commit leader so three
// concurrent writes pile up in the queue, then verifies the whole round is
// published as exactly ONE new generation — with every write present and
// each writer seeing its own write at return (read-your-writes).
func TestGroupCommitCoalescesRound(t *testing.T) {
	db := hospital(t)

	stall := make(chan struct{})
	entered := make(chan struct{})
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		// A no-op request: it occupies the leader slot until released and
		// publishes nothing (a round without changes is discarded).
		db.submit(func(c *commitCtx) {
			close(entered)
			<-stall
		})
	}()
	<-entered

	const writers = 3
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := db.Session("beaufort")
			if err != nil {
				errs <- err
				return
			}
			frag, err := xmltree.ParseString(fmt.Sprintf("<w%d/>", i), xmltree.ParseOptions{Fragment: true})
			if err != nil {
				errs <- err
				return
			}
			if _, err := s.Update(&xupdate.Op{Kind: xupdate.Append, Select: "/patients", Content: frag}); err != nil {
				errs <- err
				return
			}
			// Read-your-writes: the generation visible after Update returns
			// must already contain this write.
			ns, err := xpath.Select(db.gen().doc, fmt.Sprintf("//w%d", i), nil)
			if err != nil {
				errs <- err
				return
			}
			if len(ns) != 1 {
				errs <- fmt.Errorf("writer %d: write not visible after Update returned", i)
			}
		}(i)
	}

	// Wait for all three to be queued behind the stalled leader.
	deadline := time.Now().Add(5 * time.Second)
	for {
		db.commitMu.Lock()
		n := len(db.queue)
		db.commitMu.Unlock()
		if n == writers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d writers queued behind the stalled leader", n, writers)
		}
		time.Sleep(time.Millisecond)
	}

	seq0 := db.gen().seq
	close(stall)
	wg.Wait()
	leaderDone.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := db.gen().seq; got != seq0+1 {
		t.Fatalf("three queued writes published %d generations, want exactly 1", got-seq0)
	}
	src := db.SourceXML()
	for i := 0; i < writers; i++ {
		ns, err := xpath.Select(db.gen().doc, fmt.Sprintf("//w%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ns) != 1 {
			t.Fatalf("write w%d lost in the coalesced round; source:\n%s", i, src)
		}
	}
}

// TestReadsDoNotWaitForCommitRound holds a commit round open on the
// leader after it applied a doctor's write, and requires every read
// surface of cold and warm sessions of a doctor, a secretary and a patient
// to answer meanwhile, within one deadline, with exactly what it answered
// before the round: a published generation is an immutable snapshot that
// readers never wait on. Releasing the round then publishes the write.
func TestReadsDoNotWaitForCommitRound(t *testing.T) {
	db := hospital(t)
	const sheet = `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	  <xsl:template match="/"><r><xsl:for-each select="//diagnosis"><d v="{.}"/></xsl:for-each></r></xsl:template>
	</xsl:stylesheet>`
	value := func(v xpath.Value, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return v.TypeName() + ":" + v.Str(), nil
	}
	surfaces := []struct {
		name string
		read func(s *Session) (string, error)
	}{
		{"Query", func(s *Session) (string, error) {
			res, err := s.Query("//diagnosis")
			return fmt.Sprint(res), err
		}},
		{"QueryValue atomic", func(s *Session) (string, error) { return value(s.QueryValue("count(//node())")) }},
		{"QueryValue node-set", func(s *Session) (string, error) { return value(s.QueryValue("//diagnosis")) }},
		{"ViewXML", func(s *Session) (string, error) { return s.ViewXML() }},
		{"Transform", func(s *Session) (string, error) { return s.Transform(sheet) }},
		{"Stats", func(s *Session) (string, error) { return fmt.Sprintf("%+v", s.db.Stats()), nil }},
	}
	users := []string{"laporte", "beaufort", "franck"}
	warm := make(map[string]*Session, len(users))
	want := make(map[string]string)
	for _, u := range users {
		warm[u] = session(t, db, u)
		for _, sf := range surfaces {
			got, err := sf.read(warm[u])
			if err != nil {
				t.Fatalf("%s %s: %v", u, sf.name, err)
			}
			want[u+" "+sf.name] = got
		}
	}
	seq0 := db.gen().seq

	writer := session(t, db, "laporte")
	op := &xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "otitis"}
	held, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var res *xupdate.Result
	var werr error
	go func() {
		defer close(done)
		db.submit(func(c *commitCtx) {
			res, werr = writer.runInRound(context.Background(), c, &reqPerms{}, op, nil)
			close(held)
			<-release
		})
	}()
	releaseRound := sync.OnceFunc(func() { close(release) })
	defer releaseRound()
	deadline := time.After(5 * time.Second)
	select {
	case <-held:
	case <-deadline:
		t.Fatal("the commit round never started")
	}

	type answer struct {
		kind, key, got string
		err            error
	}
	calls := len(users) * len(surfaces) * 2
	answers := make(chan answer, calls)
	for _, u := range users {
		for _, sf := range surfaces {
			for _, kind := range []string{"warm", "cold"} {
				go func() {
					s, err := warm[u], error(nil)
					if kind == "cold" {
						s, err = db.Session(u)
					}
					got := ""
					if err == nil {
						got, err = sf.read(s)
					}
					answers <- answer{kind, u + " " + sf.name, got, err}
				}()
			}
		}
	}
	for i := 0; i < calls; i++ {
		select {
		case a := <-answers:
			if a.err != nil {
				t.Errorf("%s %s during the held round: %v", a.kind, a.key, a.err)
			} else if a.got != want[a.key] {
				t.Errorf("%s %s during the held round:\n got %s\nwant %s (pre-round)", a.kind, a.key, a.got, want[a.key])
			}
		case <-deadline:
			t.Fatalf("%d of %d reads waited on the held commit round", calls-i, calls)
		}
	}

	releaseRound()
	<-done
	if werr != nil || res.Applied != 1 {
		t.Fatalf("held round's write: %+v, %v", res, werr)
	}
	if got := db.gen().seq; got != seq0+1 {
		t.Fatalf("released round published %d generations, want 1", got-seq0)
	}
	if got, err := warm["laporte"].QueryValue("string(/patients/franck/diagnosis)"); err != nil || got.Str() != "otitis" {
		t.Fatalf("after release the doctor reads %v (err %v), want the round's write", got, err)
	}
}

// TestCOWExecutorDifferentialOracle replays a deterministic OpStream
// through an omnipotent session (secured semantics degenerate to the
// unsecured ones when every privilege is granted everywhere) and through
// the raw in-place executor on a mirror document. The COW
// clone-apply-publish pipeline must leave the database source identical to
// the mirror — while concurrent readers pin and re-read old generations
// the whole time.
func TestCOWExecutorDifferentialOracle(t *testing.T) {
	const ops = 120
	for _, seed := range []int64{1, 42} {
		mirror, err := workload.Hospital(workload.HospitalConfig{Patients: 6, RecordsPerPatient: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		xml := mirror.XML()
		db := New()
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(db.LoadXMLString(xml))
		must(db.AddRole("root"))
		must(db.AddUser("omni", "root"))
		for _, priv := range policy.Privileges {
			// node() never matches attributes (they are not on the child
			// axis), so omnipotence needs the attribute subtrees granted
			// explicitly.
			must(db.Grant(priv, "/descendant-or-self::node()", "root"))
			must(db.Grant(priv, "/descendant-or-self::node()/attribute::node()/descendant-or-self::node()", "root"))
		}
		s := session(t, db, "omni")

		// Background readers pinning generations during the replay.
		done := make(chan struct{})
		var stopped atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stopped.Load() {
					g := db.gen()
					v := g.ver()
					if _, err := xpath.Select(g.doc, "//record", nil); err != nil {
						errs <- err
						return
					}
					if g.ver() != v {
						errs <- fmt.Errorf("pinned generation version moved during replay")
						return
					}
				}
			}()
		}

		stream := workload.OpStream(workload.OpConfig{Doc: mirror, Seed: seed})
		for i := 0; i < ops; i++ {
			op, err := stream.Next()
			if err != nil {
				t.Fatal(err)
			}
			// Known, deliberate semantic split: unsecured Update on an EMPTY
			// element creates a text child (axiom 4–5 reading), the secured
			// executor refuses (axioms 20–21 need a visible child). Skip the
			// op on both sides so the docs stay in lockstep.
			if op.Kind == xupdate.Update {
				ns, err := xpath.Select(mirror, op.Select, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(ns) == 1 && len(ns[0].Children()) == 0 {
					continue
				}
			}
			if _, err := xupdate.Execute(mirror, op, nil); err != nil {
				t.Fatalf("seed %d op %d (mirror): %v", seed, i, err)
			}
			if _, err := s.Update(op); err != nil {
				t.Fatalf("seed %d op %d (session): %v", seed, i, err)
			}
		}
		stopped.Store(true)
		wg.Wait()
		close(done)
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		if got, want := db.SourceXML(), mirror.XML(); got != want {
			t.Fatalf("seed %d: COW executor diverged from in-place executor\ncow:\n%s\nmirror:\n%s", seed, got, want)
		}
	}
}
