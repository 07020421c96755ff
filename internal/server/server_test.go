package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"securexml/internal/core"
	"securexml/internal/policy"
	"securexml/internal/xupdate"
)

const medXML = `<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(testServerDB(t)))
	t.Cleanup(ts.Close)
	return ts
}

// testServerDB builds the hospital database the endpoint tests run over.
func testServerDB(t *testing.T) *core.Database {
	t.Helper()
	return testServerDBOn(t, medXML)
}

// testServerDBOn is testServerDB over another patients document.
func testServerDBOn(t *testing.T, xml string) *core.Database {
	t.Helper()
	db := core.New()
	steps := []error{
		db.LoadXMLString(xml),
		db.AddRole("staff"),
		db.AddRole("secretary", "staff"),
		db.AddRole("doctor", "staff"),
		db.AddRole("patient"),
		db.AddUser("beaufort", "secretary"),
		db.AddUser("laporte", "doctor"),
		db.AddUser("robert", "patient"),
		db.Grant(policy.Read, "/descendant-or-self::node()", "staff"),
		db.Revoke(policy.Read, "//diagnosis/node()", "secretary"),
		db.Grant(policy.Position, "//diagnosis/node()", "secretary"),
		db.Grant(policy.Read, "/patients", "patient"),
		db.Grant(policy.Read, "/patients/*[name() = $USER]/descendant-or-self::node()", "patient"),
		db.Grant(policy.Update, "//diagnosis/node()", "doctor"),
		db.Grant(policy.Delete, "//diagnosis/node()", "doctor"),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// get performs an authenticated GET and returns status and body.
func get(t *testing.T, ts *httptest.Server, user, path string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.SetBasicAuth(user, "")
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func post(t *testing.T, ts *httptest.Server, user, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.SetBasicAuth(user, "")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

func TestAuthRequired(t *testing.T) {
	ts := testServer(t)
	code, _ := get(t, ts, "", "/view")
	if code != http.StatusUnauthorized {
		t.Errorf("unauthenticated /view -> %d", code)
	}
	code, _ = get(t, ts, "mallory", "/view")
	if code != http.StatusForbidden {
		t.Errorf("unknown user /view -> %d", code)
	}
	code, _ = get(t, ts, "doctor", "/view")
	if code != http.StatusForbidden {
		t.Errorf("role login -> %d", code)
	}
}

func TestViewPerUser(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "beaufort", "/view")
	if code != http.StatusOK {
		t.Fatalf("/view -> %d: %s", code, body)
	}
	if !strings.Contains(body, "RESTRICTED") || strings.Contains(body, "tonsillitis") {
		t.Errorf("secretary view wrong:\n%s", body)
	}
	_, body = get(t, ts, "robert", "/view")
	if strings.Contains(body, "franck") || !strings.Contains(body, "pneumonia") {
		t.Errorf("robert view wrong:\n%s", body)
	}
}

// TestViewContentLength: /view answers with a Content-Length, not a
// chunked body, even when the view is larger than the server's chunking
// buffer.
func TestViewContentLength(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<patients>")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&doc, "<p%d><service>cardiology</service><diagnosis>angina</diagnosis></p%d>", i, i)
	}
	doc.WriteString("</patients>")
	ts := httptest.NewServer(New(testServerDBOn(t, doc.String())))
	t.Cleanup(ts.Close)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/view", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.SetBasicAuth("laporte", "")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) < 4096 {
		t.Fatalf("/view -> %d with %d bytes, want 200 with a large body", resp.StatusCode, len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("/view Content-Length %d, transfer encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/xml; charset=utf-8" {
		t.Errorf("/view Content-Type %q", ct)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "laporte", "/query?xpath="+urlEscape("//diagnosis/text()"))
	if code != http.StatusOK {
		t.Fatalf("/query -> %d: %s", code, body)
	}
	if !strings.Contains(body, "tonsillitis") || !strings.Contains(body, "pneumonia") {
		t.Errorf("doctor query results:\n%s", body)
	}
	code, _ = get(t, ts, "laporte", "/query")
	if code != http.StatusBadRequest {
		t.Errorf("missing xpath -> %d", code)
	}
	code, _ = get(t, ts, "laporte", "/query?xpath="+urlEscape("//["))
	if code != http.StatusBadRequest {
		t.Errorf("bad xpath -> %d", code)
	}
}

func TestValueEndpoint(t *testing.T) {
	ts := testServer(t)
	_, body := get(t, ts, "robert", "/value?xpath="+urlEscape("count(//diagnosis)"))
	if strings.TrimSpace(body) != "1" {
		t.Errorf("robert counts %q diagnoses, want 1", strings.TrimSpace(body))
	}
	_, body = get(t, ts, "laporte", "/value?xpath="+urlEscape("count(//diagnosis)"))
	if strings.TrimSpace(body) != "2" {
		t.Errorf("doctor counts %q", strings.TrimSpace(body))
	}
	code, _ := get(t, ts, "laporte", "/value")
	if code != http.StatusBadRequest {
		t.Errorf("missing xpath -> %d", code)
	}
}

func TestUpdateEndpoint(t *testing.T) {
	ts := testServer(t)
	mods := `<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:update select="/patients/franck/diagnosis">pharyngitis</xupdate:update>
	</xupdate:modifications>`
	code, body := post(t, ts, "laporte", "/update", mods)
	if code != http.StatusOK || !strings.Contains(body, "applied=1") {
		t.Fatalf("doctor update -> %d: %s", code, body)
	}
	_, q := get(t, ts, "laporte", "/query?xpath="+urlEscape("/patients/franck/diagnosis/text()"))
	if !strings.Contains(q, "pharyngitis") {
		t.Errorf("update not visible: %s", q)
	}
	// The secretary's attempt is refused per node, reported, and harmless.
	code, body = post(t, ts, "beaufort", "/update", mods)
	if code != http.StatusOK || !strings.Contains(body, "applied=0") || !strings.Contains(body, "skipped:") {
		t.Errorf("secretary update -> %d: %s", code, body)
	}
	// Malformed documents are a client error.
	code, _ = post(t, ts, "laporte", "/update", "<garbage")
	if code != http.StatusBadRequest {
		t.Errorf("garbage update -> %d", code)
	}
}

func TestUpdateBodyLimit(t *testing.T) {
	ts := testServer(t)
	big := strings.Repeat("x", maxBody+2)
	code, _ := post(t, ts, "laporte", "/update", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body -> %d", code)
	}
}

func TestHealth(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "", "/healthz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ok ") {
		t.Errorf("/healthz -> %d: %s", code, body)
	}
}

// TestHealthIdenticalAcrossHiddenRecord: /healthz needs no session, so it
// must not tell two databases apart that differ only in a record hidden
// from robert and in writes to it.
func TestHealthIdenticalAcrossHiddenRecord(t *testing.T) {
	withFranck := testServerDB(t)
	doctor, err := withFranck.Session("laporte")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := doctor.Update(&xupdate.Op{Kind: xupdate.Update, Select: "/patients/franck/diagnosis", NewValue: "angina"}); err != nil || res.Applied != 1 {
		t.Fatalf("hidden write: %+v %v", res, err)
	}
	without := testServerDBOn(t, `<patients><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`)
	var bodies [2]string
	for i, db := range []*core.Database{withFranck, without} {
		ts := httptest.NewServer(New(db))
		t.Cleanup(ts.Close)
		var code int
		if code, bodies[i] = get(t, ts, "", "/healthz"); code != http.StatusOK {
			t.Fatalf("/healthz -> %d: %s", code, bodies[i])
		}
	}
	if bodies[0] != bodies[1] {
		t.Errorf("/healthz tells the databases apart:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// urlEscape covers the few characters the tests need.
func urlEscape(s string) string {
	r := strings.NewReplacer(
		"/", "%2F", "[", "%5B", "]", "%5D", " ", "%20",
		"(", "%28", ")", "%29", "=", "%3D", "'", "%27", "$", "%24",
	)
	return r.Replace(s)
}

func TestTransformEndpoint(t *testing.T) {
	ts := testServer(t)
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	  <xsl:template match="/"><r><xsl:for-each select="/patients/*"><p dx="{diagnosis}"/></xsl:for-each></r></xsl:template>
	</xsl:stylesheet>`
	code, body := post(t, ts, "laporte", "/transform", sheet)
	if code != http.StatusOK || !strings.Contains(body, `dx="tonsillitis"`) {
		t.Fatalf("doctor transform -> %d: %s", code, body)
	}
	code, body = post(t, ts, "beaufort", "/transform", sheet)
	if code != http.StatusOK || strings.Contains(body, "tonsillitis") || !strings.Contains(body, "RESTRICTED") {
		t.Errorf("secretary transform -> %d: %s", code, body)
	}
	code, _ = post(t, ts, "laporte", "/transform", "<bad")
	if code != http.StatusBadRequest {
		t.Errorf("bad stylesheet -> %d", code)
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	ts := testServer(t)
	code, _ := get(t, ts, "", "/analyze")
	if code != http.StatusUnauthorized {
		t.Errorf("unauthenticated /analyze: %d", code)
	}
	code, body := get(t, ts, "beaufort", "/analyze")
	if code != http.StatusOK {
		t.Fatalf("/analyze: %d %s", code, body)
	}
	var rep struct {
		Rules    int               `json:"rules"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("JSON: %v\n%s", err, body)
	}
	if rep.Rules != 7 || len(rep.Findings) != 0 {
		t.Errorf("rules=%d findings=%d, want 7 clean rules\n%s", rep.Rules, len(rep.Findings), body)
	}
	code, body = get(t, ts, "beaufort", "/analyze?format=text")
	if code != http.StatusOK || !strings.Contains(body, "no findings") {
		t.Errorf("text format: %d %q", code, body)
	}
}

// TestAnalyzeFixEndpoint: ?fix=1 switches to the canonical findings schema
// with a repairs array, matching xmlsec-lint -fix -json.
func TestAnalyzeFixEndpoint(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "beaufort", "/analyze?fix=1")
	if code != http.StatusOK {
		t.Fatalf("/analyze?fix=1: %d %s", code, body)
	}
	var rep struct {
		Tool     string            `json:"tool"`
		Findings []json.RawMessage `json:"findings"`
		Repairs  []json.RawMessage `json:"repairs"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("JSON: %v\n%s", err, body)
	}
	if rep.Tool != "xmlsec-lint" {
		t.Errorf("tool = %q, want xmlsec-lint (canonical schema)", rep.Tool)
	}
	if len(rep.Findings) != 0 || len(rep.Repairs) != 0 {
		t.Errorf("clean policy should have no findings or repairs:\n%s", body)
	}
	code, body = get(t, ts, "beaufort", "/analyze?fix=1&format=text")
	if code != http.StatusOK || !strings.Contains(body, "no findings") {
		t.Errorf("text format: %d %q", code, body)
	}
}

func TestWarmEndpoint(t *testing.T) {
	ts := testServer(t)
	status, body := post(t, ts, "beaufort", "/warm", "")
	if status != http.StatusOK {
		t.Fatalf("POST /warm: status %d body %q", status, body)
	}
	var out map[string]int
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if out["warmed"] != 3 {
		t.Fatalf("warmed = %d, want 3", out["warmed"])
	}
	// Bounded pool size is caller-selectable.
	if status, body := post(t, ts, "beaufort", "/warm?workers=2", ""); status != http.StatusOK {
		t.Fatalf("POST /warm?workers=2: status %d body %q", status, body)
	}
	if status, _ := post(t, ts, "beaufort", "/warm?workers=zero", ""); status != http.StatusBadRequest {
		t.Fatalf("bad workers param: status %d, want 400", status)
	}
}

func TestSharedSessionAcrossRequests(t *testing.T) {
	ts := testServer(t)
	// Two requests for the same user must not re-materialize: the second
	// is a view-cache hit on the shared session. We can't read counters
	// through the test server (global registry races with other tests), so
	// just pin the behavior: identical views, no error.
	s1, b1 := get(t, ts, "robert", "/view")
	s2, b2 := get(t, ts, "robert", "/view")
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("statuses %d, %d", s1, s2)
	}
	if b1 != b2 {
		t.Fatalf("views differ across requests:\n%s\nvs\n%s", b1, b2)
	}
}
