package scenario

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"securexml/internal/core"
	"securexml/internal/policy"
	"securexml/internal/storage"
	"securexml/internal/xupdate"
)

// TestCorpusTierAgreement extends core's TestQueryTierAgreement to one
// reader per corpus shape: after each write of a secured write sequence,
// the reader's warm session answers every auto query and value exactly as
// the pinned view tier does. (It lives here because this package imports
// core, so core's own tests cannot generate corpora.)
func TestCorpusTierAgreement(t *testing.T) {
	queries := []string{"//*", "/*/*", "//text()", "//RESTRICTED", "/*/*[name() = $USER]"}
	values := []string{"count(//*)", "string(/*)", "/*/*", "boolean(//RESTRICTED)"}
	ctx := context.Background()
	for _, shape := range Shapes() {
		t.Run(shape, func(t *testing.T) {
			c, err := GenerateCorpus(CorpusConfig{Shape: shape, Rules: 30, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := storage.Write(&buf, c.Snapshot()); err != nil {
				t.Fatal(err)
			}
			db, err := core.Open(&buf)
			if err != nil {
				t.Fatal(err)
			}
			// The writer's grants name only the writer. The reader, the
			// first corpus user, gets position on the root element, since
			// some shapes grant nothing above their regions and the view
			// would otherwise hold no element.
			const writer = "tier-writer"
			user := db.Users()[0]
			if err := db.AddUser(writer); err != nil {
				t.Fatal(err)
			}
			for _, p := range []policy.Privilege{policy.Read, policy.Insert, policy.Update, policy.Delete} {
				if err := db.Grant(p, "/descendant-or-self::node()", writer); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Grant(policy.Position, "/*", user); err != nil {
				t.Fatal(err)
			}
			reader, err := db.SharedSession(user)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := reader.QueryValue("count(//*)"); err != nil || n.Num() < 2 {
				t.Fatalf("user %s sees %v elements (err %v), want at least 2", user, n, err)
			}
			agree := func(step string) {
				t.Helper()
				for _, q := range queries {
					auto, _, err := reader.QueryTierCtx(ctx, q, core.TierAuto)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := reader.QueryTierCtx(ctx, q, core.TierView)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(auto) != fmt.Sprint(want) {
						t.Errorf("%s: user %s query %s: auto %v, view %v", step, reader.User(), q, auto, want)
					}
				}
				for _, q := range values {
					auto, _, err := reader.QueryValueTierCtx(ctx, q, core.TierAuto)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := reader.QueryValueTierCtx(ctx, q, core.TierView)
					if err != nil {
						t.Fatal(err)
					}
					if auto.TypeName()+auto.Str() != want.TypeName()+want.Str() {
						t.Errorf("%s: user %s value %s: auto %s %q, view %s %q", step, reader.User(), q,
							auto.TypeName(), auto.Str(), want.TypeName(), want.Str())
					}
				}
			}
			agree("initial")
			ws, err := db.SharedSession(writer)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []struct {
				kind      xupdate.Kind
				path, arg string
			}{
				{xupdate.Append, "/*", "<tierprobe>probe</tierprobe>"},
				{xupdate.Update, "(//text())[1]/..", "changed"},
				{xupdate.Rename, "/*/*[1]", "renamed"},
				{xupdate.Remove, "/*/*[2]", ""},
			} {
				op, err := xupdate.NewOp(w.kind, w.path, w.arg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ws.Update(op)
				if err != nil {
					t.Fatal(err)
				}
				if res.Applied == 0 {
					t.Fatalf("%s %s: not applied: %+v", w.kind, w.path, res)
				}
				agree(fmt.Sprintf("after %s %s", w.kind, w.path))
			}
		})
	}
}
