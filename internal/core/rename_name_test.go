package core

import (
	"strings"
	"testing"

	"securexml/internal/policy"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// TestRenameRejectsMarkupName replays the markup-injection probe: a doctor
// granted update on //service renames franck's service to a string that
// spells markup. The secured executor must skip the node with
// xupdate.SkipInvalidName after its privilege checks, every other user's
// view must still reparse, and journal replay, which runs the same
// executor, must reproduce the skip.
func TestRenameRejectsMarkupName(t *testing.T) {
	var log strings.Builder
	db := hospitalWithOptions(t, WithJournal(&log, 0))
	if err := db.Grant(policy.Update, "//service", "doctor"); err != nil {
		t.Fatal(err)
	}
	var snap strings.Builder
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	const evil = `x a="1"><injected/`
	laporte := session(t, db, "laporte")

	// A lone refused rename is skipped for its name, not its privileges.
	res, err := laporte.Update(&xupdate.Op{Kind: xupdate.Rename, Select: "/patients/franck/service", NewValue: evil})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || len(res.Skipped) != 1 || res.Skipped[0].Reason != xupdate.SkipInvalidName {
		t.Fatalf("rename to %q: applied %d, skipped %+v", evil, res.Applied, res.Skipped)
	}
	// A privilege refusal still reports the privilege: beaufort holds no
	// update on //service.
	res, err = session(t, db, "beaufort").Update(&xupdate.Op{Kind: xupdate.Rename, Select: "/patients/franck/service", NewValue: evil})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 1 || res.Skipped[0].Reason != "update privilege required" {
		t.Fatalf("secretary's rename: skipped %+v, want the privilege refusal", res.Skipped)
	}

	// In a sequence with an applied op, the modifications are journaled.
	results, err := laporte.Apply(`<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:update select="/patients/franck/diagnosis">pharyngitis</xupdate:update>
	  <xupdate:rename select="/patients/franck/service">x a="1"&gt;&lt;injected/</xupdate:rename>
	</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Applied != 1 || results[1].Applied != 0 ||
		len(results[1].Skipped) != 1 || results[1].Skipped[0].Reason != xupdate.SkipInvalidName {
		t.Fatalf("sequence results: %+v %+v", results[0], results[1])
	}

	for _, user := range []string{"beaufort", "laporte", "franck"} {
		out, err := session(t, db, user).ViewXML()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := xmltree.ParseString(out, xmltree.ParseOptions{}); err != nil {
			t.Fatalf("%s's view no longer reparses: %v\n%s", user, err, out)
		}
		if strings.Contains(out, "injected") {
			t.Fatalf("%s's view carries the injected markup:\n%s", user, out)
		}
	}

	restored, lastSeq, err := Recover(strings.NewReader(snap.String()), strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 1 {
		t.Errorf("lastSeq = %d, want 1 (only the sequence applied anything)", lastSeq)
	}
	if restored.SourceXML() != db.SourceXML() {
		t.Errorf("replay diverged:\n%s\nvs\n%s", restored.SourceXML(), db.SourceXML())
	}
	if !strings.Contains(restored.SourceXML(), "<service>otolaryngology</service>") {
		t.Errorf("replay renamed the service:\n%s", restored.SourceXML())
	}
}
