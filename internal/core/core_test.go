package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"securexml/internal/labeling"
	"securexml/internal/policy"
	"securexml/internal/policyanalysis"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

const medXML = `<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`

// hospital builds the complete paper scenario on the public API.
func hospital(t *testing.T) *Database {
	t.Helper()
	return hospitalOn(t, medXML, "robert", "franck")
}

// hospitalOn builds the paper's hierarchy (the three staff users plus the
// given patient users) and the twelve rules of axiom 13 over document xml.
func hospitalOn(tb testing.TB, xml string, patients ...string) *Database {
	tb.Helper()
	db := New()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(db.LoadXMLString(xml))
	must(db.AddRole("staff"))
	must(db.AddRole("secretary", "staff"))
	must(db.AddRole("doctor", "staff"))
	must(db.AddRole("epidemiologist", "staff"))
	must(db.AddRole("patient"))
	must(db.AddUser("beaufort", "secretary"))
	must(db.AddUser("laporte", "doctor"))
	must(db.AddUser("richard", "epidemiologist"))
	for _, p := range patients {
		must(db.AddUser(p, "patient"))
	}

	must(db.Grant(policy.Read, "/descendant-or-self::node()", "staff"))
	must(db.Revoke(policy.Read, "//diagnosis/node()", "secretary"))
	must(db.Grant(policy.Position, "//diagnosis/node()", "secretary"))
	must(db.Grant(policy.Read, "/patients", "patient"))
	must(db.Grant(policy.Read, "/patients/*[name() = $USER]/descendant-or-self::node()", "patient"))
	must(db.Revoke(policy.Read, "/patients/*", "epidemiologist"))
	must(db.Grant(policy.Position, "/patients/*", "epidemiologist"))
	must(db.Grant(policy.Insert, "/patients", "secretary"))
	must(db.Grant(policy.Update, "/patients/*", "secretary"))
	must(db.Grant(policy.Insert, "//diagnosis", "doctor"))
	must(db.Grant(policy.Update, "//diagnosis/node()", "doctor"))
	must(db.Grant(policy.Delete, "//diagnosis/node()", "doctor"))
	return db
}

func session(tb testing.TB, db *Database, user string) *Session {
	tb.Helper()
	s, err := db.Session(user)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestSessionValidation(t *testing.T) {
	db := hospital(t)
	if _, err := db.Session("mallory"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user: %v", err)
	}
	if _, err := db.Session("doctor"); !errors.Is(err, ErrNotUser) {
		t.Errorf("role session: %v", err)
	}
	s := session(t, db, "laporte")
	if s.User() != "laporte" {
		t.Errorf("User = %q", s.User())
	}
}

func TestQueryOnView(t *testing.T) {
	db := hospital(t)
	// Doctor sees diagnosis content.
	doc := session(t, db, "laporte")
	res, err := doc.Query("//diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Value != "tonsillitis" {
		t.Errorf("doctor query = %+v", res)
	}
	// Secretary sees RESTRICTED placeholders.
	sec := session(t, db, "beaufort")
	res, err = sec.Query("//diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Label != xmltree.Restricted {
		t.Errorf("secretary query = %+v", res)
	}
	// Patient robert sees only his own subtree.
	rob := session(t, db, "robert")
	res, err = rob.Query("/patients/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Label != "robert" {
		t.Errorf("robert query = %+v", res)
	}
	// Malformed query errors.
	if _, err := rob.Query("//["); err == nil {
		t.Error("bad query accepted")
	}
}

func TestQueryValue(t *testing.T) {
	db := hospital(t)
	rob := session(t, db, "robert")
	v, err := rob.QueryValue("count(//diagnosis)")
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != 1 {
		t.Errorf("robert counts %v diagnoses, want 1 (only his own)", v.Num())
	}
	doc := session(t, db, "laporte")
	v, err = doc.QueryValue("count(//diagnosis)")
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != 2 {
		t.Errorf("doctor counts %v diagnoses", v.Num())
	}
	if _, err := doc.QueryValue("//["); err == nil {
		t.Error("bad expression accepted")
	}
}

func TestViewXML(t *testing.T) {
	db := hospital(t)
	sec := session(t, db, "beaufort")
	out, err := sec.ViewXML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RESTRICTED") {
		t.Errorf("secretary view lacks RESTRICTED:\n%s", out)
	}
	if strings.Contains(out, "tonsillitis") {
		t.Error("secretary view leaks diagnosis content")
	}
}

func TestUpdateThroughSession(t *testing.T) {
	db := hospital(t)
	doc := session(t, db, "laporte")
	res, err := doc.Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "cured"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("result = %+v", res)
	}
	got, err := doc.Query("/patients/franck/diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != "cured" {
		t.Errorf("after update: %+v", got)
	}
	// The secretary's view refreshes too (cache keyed by doc version) but
	// still hides the content.
	sec := session(t, db, "beaufort")
	sres, err := sec.Query("/patients/franck/diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(sres) != 1 || sres[0].Label != xmltree.Restricted {
		t.Errorf("secretary sees %+v", sres)
	}
}

func TestUpdateDeniedInvisible(t *testing.T) {
	db := hospital(t)
	rob := session(t, db, "robert")
	res, err := rob.Update(&xupdate.Op{Kind: xupdate.Remove, Select: "/patients/franck"})
	if err != nil {
		t.Fatal(err)
	}
	// franck is not even in robert's view.
	if res.Selected != 0 || res.Applied != 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestViewCacheInvalidation(t *testing.T) {
	db := hospital(t)
	sec := session(t, db, "beaufort")
	// View() hands out fresh materializations of the cached permissions,
	// so caching shows in the counters, not in identity.
	h0, _, _, _ := cacheCounts()
	v1, err := sec.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sec.View(); err != nil {
		t.Fatal(err)
	}
	h1, _, _, _ := cacheCounts()
	if h1 != h0+1 {
		t.Error("view not cached across unchanged reads")
	}
	if v1.Restricted == 0 {
		t.Error("secretary should start with RESTRICTED diagnosis content")
	}
	// A policy change invalidates.
	if err := db.Grant(policy.Read, "//diagnosis/node()", "secretary"); err != nil {
		t.Fatal(err)
	}
	v3, err := sec.View()
	if err != nil {
		t.Fatal(err)
	}
	if v3.Restricted != 0 {
		t.Error("new grant not reflected")
	}
	// A document change is reflected on the next read (incrementally or by
	// rebuild — either way the content must be current).
	doc := session(t, db, "laporte")
	if _, err := doc.Update(&xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: "flu"}); err != nil {
		t.Fatal(err)
	}
	got, err := sec.Query("/patients/franck/diagnosis/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != "flu" {
		t.Errorf("document change not reflected in cached permissions: %+v", got)
	}
}

func TestApplyModifications(t *testing.T) {
	db := hospital(t)
	sec := session(t, db, "beaufort")
	results, err := sec.Apply(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:append select="/patients">
		    <xupdate:element name="albert"><service>cardiology</service><diagnosis/></xupdate:element>
		  </xupdate:append>
		  <xupdate:rename select="/patients/albert">adalbert</xupdate:rename>
		</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Applied != 1 || results[1].Applied != 1 {
		t.Fatalf("results = %+v", results)
	}
	got, err := sec.Query("/patients/adalbert/service/text()")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != "cardiology" {
		t.Errorf("after apply: %+v", got)
	}
	if _, err := sec.Apply("<garbage"); err == nil {
		t.Error("bad modifications accepted")
	}
}

func TestAuditTrail(t *testing.T) {
	db := hospital(t)
	sec := session(t, db, "beaufort")
	if _, err := sec.Query("//diagnosis"); err != nil {
		t.Fatal(err)
	}
	if _, err := sec.Update(&xupdate.Op{Kind: xupdate.Rename, Select: "/patients/franck", NewValue: "f"}); err != nil {
		t.Fatal(err)
	}
	entries := db.Audit()
	if len(entries) == 0 {
		t.Fatal("no audit entries")
	}
	var sawQuery, sawUpdate bool
	for _, e := range entries {
		if e.User == "beaufort" && e.Action == "query" {
			sawQuery = true
		}
		if e.User == "beaufort" && e.Action == "update" && strings.Contains(e.Detail, "rename") {
			sawUpdate = true
		}
	}
	if !sawQuery || !sawUpdate {
		t.Errorf("audit missing entries: query=%v update=%v", sawQuery, sawUpdate)
	}
	// Sequence numbers are strictly increasing.
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq <= entries[i-1].Seq {
			t.Fatal("audit sequence not increasing")
		}
	}
}

func TestAuditLimit(t *testing.T) {
	db := New(WithAuditLimit(3))
	if err := db.LoadXMLString("<r/>"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	s := session(t, db, "u")
	for i := 0; i < 10; i++ {
		if _, err := s.Query("/r"); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(db.Audit()); got != 3 {
		t.Errorf("audit kept %d entries, want 3", got)
	}
	off := New(WithAuditLimit(0))
	if err := off.LoadXMLString("<r/>"); err != nil {
		t.Fatal(err)
	}
	if got := len(off.Audit()); got != 0 {
		t.Errorf("disabled audit kept %d entries", got)
	}
}

func TestWithScheme(t *testing.T) {
	db := New(WithScheme(labeling.NewLSDX()))
	if err := db.LoadXMLString(medXML); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Nodes != 12 {
		t.Errorf("nodes = %d", db.Stats().Nodes)
	}
}

func TestStats(t *testing.T) {
	db := hospital(t)
	st := db.Stats()
	if st.Nodes != 12 || st.Rules != 12 || st.Users != 5 || st.Roles != 5 {
		t.Errorf("stats = %+v", st)
	}
	if len(db.Rules()) != 12 {
		t.Errorf("Rules() = %d", len(db.Rules()))
	}
	if len(db.Users()) != 5 || len(db.Roles()) != 5 {
		t.Error("Users/Roles wrong")
	}
	if !strings.Contains(db.SourceXML(), "tonsillitis") {
		t.Error("SourceXML truncated")
	}
	if !db.Hierarchy().ISA("beaufort", "staff") {
		t.Error("Hierarchy copy broken")
	}
}

func TestAdministrationErrors(t *testing.T) {
	db := New()
	if err := db.Grant(policy.Read, "//x", "ghost"); err == nil {
		t.Error("grant to unknown subject accepted")
	}
	if err := db.AddUser("u", "ghost"); err == nil {
		t.Error("user under unknown role accepted")
	}
	if err := db.LoadXMLString("<unclosed"); err == nil {
		t.Error("bad XML accepted")
	}
	if err := db.AddRule(policy.Rule{Effect: policy.Accept, Privilege: policy.Read, Path: "//x", Subject: "ghost", Priority: 99}); err == nil {
		t.Error("AddRule with unknown subject accepted")
	}
}

// TestConcurrentReadersAndWriters hammers the database from several
// goroutines; run with -race this validates the locking discipline.
func TestConcurrentReadersAndWriters(t *testing.T) {
	db := hospital(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, user := range []string{"laporte", "beaufort", "richard", "robert"} {
		user := user
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := db.Session(user)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				if _, err := s.Query("//diagnosis"); err != nil {
					errs <- err
					return
				}
				if _, err := s.ViewXML(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := db.Session("laporte")
		if err != nil {
			errs <- err
			return
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Update(&xupdate.Op{Kind: xupdate.Update, Select: "//diagnosis", NewValue: "v"}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	db := hospital(t)
	// Mutate a bit first so the snapshot isn't the pristine state.
	doc := session(t, db, "laporte")
	if _, err := doc.Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "flu"}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Same stats (except doc version counter, which restarts).
	a, b := db.Stats(), restored.Stats()
	if a.Nodes != b.Nodes || a.Rules != b.Rules || a.Users != b.Users || a.Roles != b.Roles {
		t.Errorf("stats after restore: %+v vs %+v", a, b)
	}
	// Views identical for every user.
	for _, user := range db.Users() {
		s1 := session(t, db, user)
		s2 := session(t, restored, user)
		v1, err := s1.ViewXML()
		if err != nil {
			t.Fatal(err)
		}
		v2, err := s2.ViewXML()
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Errorf("%s: view differs after restore:\n%s\nvs\n%s", user, v1, v2)
		}
	}
	// And the restored database accepts further secured updates.
	s, err := restored.Session("laporte")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Update(&xupdate.Op{Kind: xupdate.Remove, Select: "//diagnosis/node()"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 {
		t.Errorf("restored db update applied = %d", res.Applied)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	// A snapshot whose rule names an unknown subject fails at restore.
	bad := "securexml-snapshot 1\nscheme fracpath\nrule accept read 1 ghost \"//x\"\nend\n"
	if _, err := Open(strings.NewReader(bad)); err == nil {
		t.Error("dangling rule subject accepted")
	}
}

func TestApplyWithVariablesAndValueOf(t *testing.T) {
	db := hospital(t)
	doc := session(t, db, "laporte")
	results, err := doc.Apply(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:variable name="dx" select="/patients/franck/diagnosis/text()"/>
		  <xupdate:append select="/patients/robert/diagnosis">
		    <xupdate:element name="note">was: <xupdate:value-of select="$dx"/></xupdate:element>
		  </xupdate:append>
		</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[1].Applied != 1 {
		t.Fatalf("results = %+v", results)
	}
	got, err := doc.Query("/patients/robert/diagnosis/note")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != "was: tonsillitis" {
		t.Errorf("note = %+v", got)
	}
	// A variable bound against a restricted view copies RESTRICTED, not the
	// hidden content.
	sec := session(t, db, "beaufort") // holds insert on /patients via rule 8
	results, err = sec.Apply(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:variable name="dx" select="/patients/franck/diagnosis/text()"/>
		  <xupdate:append select="/patients">
		    <xupdate:element name="memo"><xupdate:value-of select="$dx"/></xupdate:element>
		  </xupdate:append>
		</xupdate:modifications>`)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Applied != 1 {
		t.Fatalf("secretary append refused: %+v", results[1])
	}
	memo, err := sec.Query("/patients/memo")
	if err != nil {
		t.Fatal(err)
	}
	if len(memo) != 1 || memo[0].Value != xmltree.Restricted {
		t.Errorf("memo = %+v, want RESTRICTED content", memo)
	}
}

// TestJournalRecovery: snapshot + journal replay reproduces the exact
// database state, including operations with variables and value-of, and
// tolerates a torn journal tail.
func TestJournalRecovery(t *testing.T) {
	var log strings.Builder
	db := hospitalWithOptions(t, WithJournal(&log, 0))

	// Take the snapshot BEFORE the journaled operations.
	var snap strings.Builder
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}

	// A working day of journaled writes.
	sec := session(t, db, "beaufort")
	if _, err := sec.Apply(`
		<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
		  <xupdate:append select="/patients">
		    <xupdate:element name="albert"><service>cardiology</service><diagnosis/></xupdate:element>
		  </xupdate:append>
		</xupdate:modifications>`); err != nil {
		t.Fatal(err)
	}
	doc := session(t, db, "laporte")
	if _, err := doc.Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "pharyngitis"}); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Update(&xupdate.Op{Kind: xupdate.Remove, Select: "/patients/robert/diagnosis/text()"}); err != nil {
		t.Fatal(err)
	}
	// A refused op must NOT be journaled (nothing applied).
	rob := session(t, db, "robert")
	if _, err := rob.Update(&xupdate.Op{Kind: xupdate.Rename, Select: "/patients/robert", NewValue: "king"}); err != nil {
		t.Fatal(err)
	}

	// Recover from snapshot + journal.
	restored, lastSeq, err := Recover(strings.NewReader(snap.String()), strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 3 {
		t.Errorf("lastSeq = %d, want 3 (the refused op was not logged)", lastSeq)
	}
	if restored.SourceXML() != db.SourceXML() {
		t.Errorf("recovered state differs:\n%s\nvs\n%s", restored.SourceXML(), db.SourceXML())
	}

	// Torn tail: cut the journal mid-entry; recovery keeps the prefix.
	torn := log.String()[:len(log.String())-10]
	partial, _, err := Recover(strings.NewReader(snap.String()), strings.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if partial.SourceXML() == db.SourceXML() {
		t.Error("torn journal unexpectedly reproduced the full state")
	}
	if !strings.Contains(partial.SourceXML(), "albert") {
		t.Error("torn-tail recovery lost the intact prefix")
	}
}

// hospitalWithOptions is hospital(t) with extra database options.
func hospitalWithOptions(t *testing.T, opts ...Option) *Database {
	t.Helper()
	db := New(opts...)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.LoadXMLString(medXML))
	must(db.AddRole("staff"))
	must(db.AddRole("secretary", "staff"))
	must(db.AddRole("doctor", "staff"))
	must(db.AddRole("epidemiologist", "staff"))
	must(db.AddRole("patient"))
	must(db.AddUser("beaufort", "secretary"))
	must(db.AddUser("laporte", "doctor"))
	must(db.AddUser("richard", "epidemiologist"))
	must(db.AddUser("robert", "patient"))
	must(db.AddUser("franck", "patient"))
	must(db.Grant(policy.Read, "/descendant-or-self::node()", "staff"))
	must(db.Revoke(policy.Read, "//diagnosis/node()", "secretary"))
	must(db.Grant(policy.Position, "//diagnosis/node()", "secretary"))
	must(db.Grant(policy.Read, "/patients", "patient"))
	must(db.Grant(policy.Read, "/patients/*[name() = $USER]/descendant-or-self::node()", "patient"))
	must(db.Revoke(policy.Read, "/patients/*", "epidemiologist"))
	must(db.Grant(policy.Position, "/patients/*", "epidemiologist"))
	must(db.Grant(policy.Insert, "/patients", "secretary"))
	must(db.Grant(policy.Update, "/patients/*", "secretary"))
	must(db.Grant(policy.Insert, "//diagnosis", "doctor"))
	must(db.Grant(policy.Update, "//diagnosis/node()", "doctor"))
	must(db.Grant(policy.Delete, "//diagnosis/node()", "doctor"))
	return db
}

func TestRecoverErrors(t *testing.T) {
	if _, _, err := Recover(strings.NewReader("junk"), strings.NewReader("")); err == nil {
		t.Error("bad snapshot accepted")
	}
	// Journal entry by an unknown user fails replay.
	var snap strings.Builder
	db := hospital(t)
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	badLog := "entry 1 mallory 24\n<xupdate:modifications/>\n"
	if _, _, err := Recover(strings.NewReader(snap.String()), strings.NewReader(badLog)); err == nil {
		t.Error("journal from unknown user replayed")
	}
}

func TestSessionTransform(t *testing.T) {
	db := hospital(t)
	sheet := `
		<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
		  <xsl:template match="/">
		    <r><xsl:for-each select="/patients/*"><p n="{name()}" d="{diagnosis}"/></xsl:for-each></r>
		  </xsl:template>
		</xsl:stylesheet>`
	doc := session(t, db, "laporte")
	out, err := doc.Transform(sheet)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `d="tonsillitis"`) {
		t.Errorf("doctor transform:\n%s", out)
	}
	sec := session(t, db, "beaufort")
	out, err = sec.Transform(sheet)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "tonsillitis") || !strings.Contains(out, `d="RESTRICTED"`) {
		t.Errorf("secretary transform leaks:\n%s", out)
	}
	if _, err := sec.Transform("<bad"); err == nil {
		t.Error("bad stylesheet accepted")
	}
	// Audit records the transform.
	found := false
	for _, e := range db.Audit() {
		if e.Action == "transform" && e.User == "beaufort" {
			found = true
		}
	}
	if !found {
		t.Error("transform not audited")
	}
}

func TestAnalyzePolicy(t *testing.T) {
	db := hospital(t)
	rep := db.AnalyzePolicy()
	if rep.Rules != 12 || len(rep.Findings) != 0 {
		t.Fatalf("paper database must analyze clean, got rules=%d:\n%s", rep.Rules, rep.Text())
	}
	// Granting secretary update where it holds position without read is the
	// §2.2 covert-channel interplay; the analyzer must surface it.
	if err := db.Grant(policy.Update, "//diagnosis/node()", "secretary"); err != nil {
		t.Fatal(err)
	}
	rep = db.AnalyzePolicy()
	found := false
	for _, f := range rep.Findings {
		if f.Code == policyanalysis.CodeCovertChannel {
			found = true
		}
	}
	if !found {
		t.Errorf("covert-channel hazard not reported:\n%s", rep.Text())
	}
}
