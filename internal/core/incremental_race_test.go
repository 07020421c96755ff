package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// TestIncrementalViewRaceStress hammers the incremental maintenance path
// under -race: every user's session is shared by two reader goroutines
// that mix filtered queries, atomic and node-set values, ViewXML (all of
// which patch the shared entry's permissions) and writes of their own,
// while writers stream single-node updates, structural grafts and
// removals through other sessions, and an administrator occasionally
// flips the policy epoch to force full rebuilds and maintainer
// recompiles. Published entries are fingerprinted as the readers go —
// the view they render over the entry's generation and every permission
// cell of that generation — and must still print the same after the
// storm: no patch may write through to a published entry or its shared
// base map. A third
// writer streams writes the policy refuses, which, like every secured
// write, select on the published generation while the readers query it;
// every published document is fingerprinted too and must not change
// after publication, so no write may reach the base it selected on.
// Finally each shared session's view must serialize identically to the
// view of a fresh session for the same user.
func TestIncrementalViewRaceStress(t *testing.T) {
	db := hospital(t)
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	fail := func(err error) {
		if err != nil {
			errs <- err
		}
	}

	users := []string{"beaufort", "laporte", "richard", "robert", "franck"}
	shared := make(map[string]*Session, len(users))
	for _, u := range users {
		shared[u] = session(t, db, u)
	}

	var printsMu sync.Mutex
	var prints []entryPrint
	var docsMu sync.Mutex
	docs := make(map[*generation]string)
	// recordDoc fingerprints g's document the first time g is seen.
	recordDoc := func(g *generation) {
		docsMu.Lock()
		defer docsMu.Unlock()
		if _, ok := docs[g]; !ok {
			docs[g] = docSignature(g.doc)
		}
	}

	// record fingerprints s's published entry when it belongs to the
	// current generation.
	record := func(s *Session) {
		g := db.gen()
		recordDoc(g)
		s.mu.Lock()
		e := s.entry
		s.mu.Unlock()
		if e == nil || e.gen != g.docGen || e.epoch != g.epoch || e.ver != g.ver() {
			return
		}
		p := entryPrint{g: g, e: e, print: printEntry(g, e)}
		printsMu.Lock()
		prints = append(prints, p)
		printsMu.Unlock()
	}

	// Readers: two goroutines per shared session.
	for _, u := range users {
		s := shared[u]
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if _, err := s.Query("//service"); err != nil {
						fail(err)
						return
					}
					if _, err := s.QueryValue("count(//diagnosis)"); err != nil {
						fail(err)
						return
					}
					record(s)
					if _, err := s.QueryValue("//service"); err != nil {
						fail(err)
						return
					}
					if _, err := s.ViewXML(); err != nil {
						fail(err)
						return
					}
					if i%5 == 4 {
						// Applied for the doctor, refused for everyone else;
						// either way the write selects under this session's
						// permissions, on the published generation.
						if _, err := s.Update(&xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: fmt.Sprintf("%s%d", u, i)}); err != nil {
							fail(err)
							return
						}
					}
					record(s)
				}
			}()
		}
	}

	// Writer 1: the doctor rewrites diagnosis texts (single-node deltas,
	// the incremental sweet spot) and occasionally deletes them.
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
			if i%7 == 6 {
				if _, err := s.Update(&xupdate.Op{Kind: xupdate.Remove, Select: "//diagnosis/node()"}); err != nil {
					fail(err)
					return
				}
			}
		}
	}()

	// Writer 2: the secretary grafts new patients (insert deltas).
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := db.Session("beaufort")
		if err != nil {
			fail(err)
			return
		}
		for i := 0; i < iters; i++ {
			frag, err := xmltree.ParseString(fmt.Sprintf("<p%d><service>s%d</service></p%d>", i, i, i), xmltree.ParseOptions{Fragment: true})
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

	// Writer 3: writes the policy refuses (the secretary may not change a
	// diagnosis, the doctor may not delete one, a patient may change
	// nothing), each followed by a fingerprint of the generation it ran on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		refused := []struct {
			user string
			op   *xupdate.Op
		}{
			{"beaufort", &xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: "leak"}},
			{"laporte", &xupdate.Op{Kind: xupdate.Remove, Select: "//diagnosis"}},
			{"robert", &xupdate.Op{Kind: xupdate.Rename, Select: "/patients/*", NewValue: "leak"}},
		}
		for i := 0; i < iters; i++ {
			w := refused[i%len(refused)]
			res, err := shared[w.user].Update(w.op)
			if err != nil {
				fail(err)
				return
			}
			if res.Applied != 0 {
				fail(fmt.Errorf("%s %s %s applied %d nodes, want a refusal", w.user, w.op.Kind, w.op.Select, res.Applied))
				return
			}
			recordDoc(db.gen())
		}
	}()

	// Administrator: periodic policy churn forces epoch misses between
	// incremental applies, exercising the rebuild/recompile transition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			if err := db.Grant(policy.Read, "//service", "staff"); err != nil {
				fail(err)
				return
			}
			if err := db.Revoke(policy.Read, "//note", "secretary"); err != nil {
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

	if len(prints) == 0 {
		t.Fatal("no published entry was fingerprinted")
	}
	for _, p := range prints {
		if got := printEntry(p.g, p.e); got != p.print {
			t.Fatalf("a published entry of version %d changed after publication\nthen: %s\nnow:  %s", p.e.ver, p.print, got)
		}
	}

	recordDoc(db.gen())
	for g, print := range docs {
		if got := docSignature(g.doc); got != print {
			t.Fatalf("the published document of generation %d changed after publication\nthen:\n%s\nnow:\n%s", g.seq, print, got)
		}
	}

	// Quiescent check: every shared session's view, rendered from its
	// incrementally patched permissions, must match the specification's
	// from-scratch materialization.
	g := db.gen()
	for _, u := range users {
		got, err := shared[u].ViewXML()
		if err != nil {
			t.Fatal(err)
		}
		pm, err := g.policy.Evaluate(g.doc, g.subjects, u)
		if err != nil {
			t.Fatal(err)
		}
		if want := view.Materialize(g.doc, pm).Doc.XML(); got != want {
			t.Errorf("user %s: patched view diverged from fresh view\npatched:\n%s\nfresh:\n%s", u, got, want)
		}
	}
}

// entryPrint is a published cache entry, the generation it is current for,
// and its fingerprint when it was recorded.
type entryPrint struct {
	g     *generation
	e     *permsEntry
	print string
}

// printEntry renders what entry e serves at generation g: its version, the
// view its permissions render over g's document, and every permission
// cell of that document.
func printEntry(g *generation, e *permsEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d ", e.ver)
	if err := g.doc.Write(&b, xmltree.WriteOptions{Filter: qfilter.ForPerms(e.pm)}); err != nil {
		panic(err)
	}
	b.WriteByte('\n')
	for _, n := range g.doc.Nodes() {
		id := n.IDString()
		b.WriteString(id)
		b.WriteByte('=')
		for _, priv := range policy.Privileges {
			if e.pm.Peek(n, priv) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte(' ')
	}
	return b.String()
}
