// Session.View hands out a private materialization: this test proves the
// snapshot really is an independent copy at runtime. One session mutates
// its View() snapshot as hostilely as the xmltree API allows while every
// other user's session keeps querying, and afterwards each session's view
// must be cell-for-cell identical to a freshly built reference database —
// no session's permissions may move. Run under -race (make race) this also
// proves snapshot hand-out does not race with the shared permission cache.
// Published generation roots are guarded separately: Freeze makes their
// mutators return xmltree.ErrFrozen.
package core

import (
	"strings"
	"sync"
	"testing"
)

func TestSnapshotMutationIsolated(t *testing.T) {
	db := hospital(t)
	users := db.Users()

	// Every user's one session shares the cross-user rule cache.
	shared := func(u string) *Session {
		t.Helper()
		s, err := db.Session(u)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	attacker := shared("laporte")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			v, err := attacker.View()
			if err != nil {
				t.Errorf("attacker view: %v", err)
				return
			}
			// Vandalize the snapshot: strip the root's children, rename and
			// relabel what remains, and zero the accounting fields.
			for _, c := range v.Doc.Root().Children() {
				_ = v.Doc.Remove(c)
			}
			v.Restricted, v.Hidden = 0, 0
		}
	}()
	for _, u := range users {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			s := shared(u)
			for i := 0; i < 5; i++ {
				if _, err := s.Query("/descendant-or-self::node()"); err != nil {
					t.Errorf("query as %s: %v", u, err)
					return
				}
				if _, err := s.ViewXML(); err != nil {
					t.Errorf("view xml as %s: %v", u, err)
					return
				}
			}
		}(u)
	}
	wg.Wait()

	// Differential oracle: every session's view — including the attacker's
	// own — must match a untouched reference database user-for-user.
	ref := hospital(t)
	for _, u := range users {
		want, err := session(t, ref, u).ViewXML()
		if err != nil {
			t.Fatalf("reference view for %s: %v", u, err)
		}
		got, err := shared(u).ViewXML()
		if err != nil {
			t.Fatalf("view for %s: %v", u, err)
		}
		if got != want {
			t.Errorf("user %s: view changed after snapshot mutation\n got: %s\nwant: %s", u, got, want)
		}
	}
	// The attacker's snapshot damage stayed in the snapshot: a fresh one
	// still shows the patients.
	v, err := attacker.View()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.Doc.XML(), "<service>") {
		t.Errorf("fresh snapshot lost content: %s", v.Doc.XML())
	}
}
