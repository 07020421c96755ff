package core

import (
	"context"
	"strings"
	"testing"

	"securexml/internal/journal"
	"securexml/internal/obs"
	"securexml/internal/xupdate"
)

// TestFailedApplyRecoversToLiveState: an Apply whose second op fails at
// evaluation still publishes its first op, so the journal must hold that
// op — exactly the published prefix — for recovery to reproduce the live
// source.
func TestFailedApplyRecoversToLiveState(t *testing.T) {
	var log strings.Builder
	db := hospitalWithOptions(t, WithJournal(&log, 0))
	var snap strings.Builder
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	results, err := session(t, db, "laporte").Apply(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:update select="/patients/franck/diagnosis">angina</xupdate:update>
		  <xupdate:update select="$undefined">otitis</xupdate:update>
		</xupdate:modifications>`)
	if err == nil {
		t.Fatal("an op selecting an undefined variable succeeded")
	}
	if len(results) != 1 || results[0].Applied != 1 {
		t.Fatalf("results = %+v, want the first op applied", results)
	}
	if !strings.Contains(db.SourceXML(), "angina") {
		t.Fatalf("the first op was not published:\n%s", db.SourceXML())
	}
	entries, err := journal.Read(strings.NewReader(log.String()))
	if err != nil || len(entries) != 1 {
		t.Fatalf("journal = %+v, %v; want one entry", entries, err)
	}
	restored, _, err := Recover(strings.NewReader(snap.String()), strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.SourceXML(), db.SourceXML(); got != want {
		t.Fatalf("recovered source differs from the live one:\n%s\nvs live\n%s", got, want)
	}
}

// applyThenCopy updates franck's diagnosis, binds it and appends a copy
// of it under robert's diagnosis: a later op that reads what an earlier
// one wrote.
const applyThenCopy = `
	<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:update select="/patients/franck/diagnosis">angina</xupdate:update>
	  <xupdate:variable name="dx" select="string(/patients/franck/diagnosis)"/>
	  <xupdate:append select="/patients/robert/diagnosis">
	    <xupdate:element name="note"><xupdate:value-of select="$dx"/></xupdate:element>
	  </xupdate:append>
	</xupdate:modifications>`

// hospitalTwoDoctors is the paper hospital with a second doctor, house,
// who may write everything laporte may.
func hospitalTwoDoctors(t *testing.T) *Database {
	t.Helper()
	db := hospital(t)
	if err := db.AddUser("house", "doctor"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestApplyIsOneCommitRequest queues a three-op Apply and then another
// doctor's write of the same node behind a stalled commit leader. The
// Apply's ops run back to back: its variable sees its own first op's
// value, not the other doctor's, whose write lands after the whole Apply.
func TestApplyIsOneCommitRequest(t *testing.T) {
	db := hospitalTwoDoctors(t)
	laporte, house := session(t, db, "laporte"), session(t, db, "house")
	var results []*xupdate.Result
	var applyErr, otherErr error
	inOneRound(t, db, nil,
		func() { results, applyErr = laporte.Apply(applyThenCopy) },
		func() {
			_, otherErr = house.Update(&xupdate.Op{Kind: xupdate.Update,
				Select: "/patients/franck/diagnosis", NewValue: "otitis"})
		})
	if applyErr != nil || otherErr != nil {
		t.Fatalf("apply: %v; other write: %v", applyErr, otherErr)
	}
	if len(results) != 3 || results[0].Applied != 1 || results[2].Applied != 1 {
		t.Fatalf("results = %+v", results)
	}
	got, err := laporte.Query("/patients/robert/diagnosis/note")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != "angina" {
		t.Errorf("note = %+v, want the Apply's own value angina", got)
	}
	dx, err := laporte.Query("/patients/franck/diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	if len(dx) != 1 || dx[0].Value != "otitis" {
		t.Errorf("franck's diagnosis = %+v, want the later write's otitis", dx)
	}
}

// TestRoundPatchesPermissions: inside one commit round, the later ops of
// an Apply and another session's write that follows it patch their
// permissions over the round's own batches; none re-evaluates the policy.
// The second writer updates the text node the Apply's first op created,
// which only the patch gives it a permission cell for.
func TestRoundPatchesPermissions(t *testing.T) {
	db := hospitalTwoDoctors(t)
	laporte, house := session(t, db, "laporte"), session(t, db, "house")
	for _, s := range []*Session{laporte, house} {
		if _, err := s.Query("//diagnosis"); err != nil {
			t.Fatal(err)
		}
	}
	eval := obs.Stage("policy_evaluate")
	e0 := eval.Count()
	tracer := obs.NewTracer(4, 0, nil)
	ctx, trace := tracer.StartTrace(context.Background(), "test_second_writer")
	var results []*xupdate.Result
	var res *xupdate.Result
	var applyErr, otherErr error
	inOneRound(t, db, nil,
		func() { results, applyErr = laporte.Apply(applyThenCopy) },
		func() {
			res, otherErr = house.UpdateCtx(ctx, &xupdate.Op{Kind: xupdate.Update,
				Select: "/patients/franck/diagnosis", NewValue: "otitis"})
		})
	trace.Finish()
	if applyErr != nil || otherErr != nil {
		t.Fatalf("apply: %v; other write: %v", applyErr, otherErr)
	}
	if len(results) != 3 || results[0].Applied != 1 || results[2].Applied != 1 || res.Applied != 1 {
		t.Fatalf("apply results %+v, other write %+v: want every write applied", results, res)
	}
	if n := eval.Count() - e0; n != 0 {
		t.Errorf("the round ran %d policy_evaluate stages, want 0", n)
	}
	ex := trace.Export()
	if len(ex.Root.Children) != 1 || ex.Root.Children[0].Attrs["view_source"] != "round_patch" {
		t.Errorf("second writer's session_update: %+v, want view_source round_patch", ex.Root.Children)
	}
}

// TestNodeSetBindingReadsRoundState: a node-set variable reads the round's
// current document whatever else shares the round. laporte's Apply binds
// franck, updates his diagnosis through the binding and copies the
// diagnosis it now reads; one run has the Apply alone in its round, the
// other behind house's write, which copies the document first. Both must
// copy the new value, and recovery, which replays every entry in a round
// of its own, must reproduce the live source.
func TestNodeSetBindingReadsRoundState(t *testing.T) {
	const bindUpdateCopy = `
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:variable name="d" select="/patients/franck"/>
		  <xupdate:update select="$d/diagnosis">angina</xupdate:update>
		  <xupdate:append select="/patients/robert/diagnosis">
		    <xupdate:element name="note"><xupdate:value-of select="$d/diagnosis/text()"/></xupdate:element>
		  </xupdate:append>
		</xupdate:modifications>`
	for _, behindWrite := range []bool{false, true} {
		var log strings.Builder
		db := hospitalWithOptions(t, WithJournal(&log, 0))
		if err := db.AddUser("house", "doctor"); err != nil {
			t.Fatal(err)
		}
		var snap strings.Builder
		if err := db.Save(&snap); err != nil {
			t.Fatal(err)
		}
		laporte, house := session(t, db, "laporte"), session(t, db, "house")
		var results []*xupdate.Result
		var applyErr, otherErr error
		apply := func() { results, applyErr = laporte.Apply(bindUpdateCopy) }
		if behindWrite {
			inOneRound(t, db, nil,
				func() {
					_, otherErr = house.Update(&xupdate.Op{Kind: xupdate.Update,
						Select: "/patients/robert/diagnosis", NewValue: "otitis"})
				},
				apply)
		} else {
			apply()
		}
		if applyErr != nil || otherErr != nil {
			t.Fatalf("behind a write %v: apply: %v; other write: %v", behindWrite, applyErr, otherErr)
		}
		if len(results) != 3 || results[1].Applied != 1 || results[2].Applied != 1 {
			t.Fatalf("behind a write %v: results = %+v", behindWrite, results)
		}
		note, err := laporte.Query("/patients/robert/diagnosis/note")
		if err != nil {
			t.Fatal(err)
		}
		if len(note) != 1 || note[0].Value != "angina" {
			t.Errorf("behind a write %v: note = %+v, want the updated angina", behindWrite, note)
		}
		restored, _, err := Recover(strings.NewReader(snap.String()), strings.NewReader(log.String()))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := restored.SourceXML(), db.SourceXML(); got != want {
			t.Errorf("behind a write %v: recovered source differs from the live one:\n%s\nvs live\n%s", behindWrite, got, want)
		}
	}
}

// TestGoBuiltWritesRecoverToLiveState: operations built in Go rather than
// parsed are journaled in the wire syntax, which cannot carry an update
// value's surrounding whitespace or content's comments and split text.
// Update runs them in that syntax's normal form, so recovery reproduces
// the live source node for node.
func TestGoBuiltWritesRecoverToLiveState(t *testing.T) {
	var log strings.Builder
	db := hospitalWithOptions(t, WithJournal(&log, 0))
	var snap strings.Builder
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	appendOp, err := xupdate.NewOp(xupdate.Append, "/patients/robert/diagnosis", `<a>x<!--c-->y</a><b> </b>`)
	if err != nil {
		t.Fatal(err)
	}
	laporte := session(t, db, "laporte")
	for _, op := range []*xupdate.Op{
		{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: " padded "},
		appendOp,
	} {
		if res, err := laporte.Update(op); err != nil || res.Applied == 0 {
			t.Fatalf("%s %s: %+v %v", op.Kind, op.Select, res, err)
		}
	}
	restored, _, err := Recover(strings.NewReader(snap.String()), strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.SourceSketch(), db.SourceSketch(); got != want {
		t.Errorf("recovered source differs from the live one:\n%s\nvs live\n%s", got, want)
	}
	if got, want := restored.SourceXML(), db.SourceXML(); got != want {
		t.Errorf("recovered XML differs from the live one:\n%s\nvs live\n%s", got, want)
	}
}
