package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"securexml/internal/obs"
)

// traceExport mirrors the /trace/{id} payload shape for decoding.
type traceExport struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	User  string `json:"user"`
	DurNS int64  `json:"dur_ns"`
	Spans int    `json:"spans"`
	Root  *struct {
		Name     string            `json:"name"`
		Attrs    map[string]string `json:"attrs"`
		Children []json.RawMessage `json:"children"`
	} `json:"root"`
}

func TestTraceEndpoints(t *testing.T) {
	ts := testServer(t)

	// A request produces a trace whose ID is the response's X-Request-Id.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/view", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.SetBasicAuth("laporte", "")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("no X-Request-Id header")
	}

	// /traces lists it to its user, newest first.
	code, body := get(t, ts, "laporte", "/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d: %s", code, body)
	}
	var sums []traceExport
	if err := json.Unmarshal([]byte(body), &sums); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}
	if len(sums) == 0 || sums[0].ID != reqID || sums[0].Name != "view" {
		t.Fatalf("/traces head = %+v, want trace %s for endpoint view", sums, reqID)
	}
	if sums[0].User != "laporte" {
		t.Fatalf("trace user = %q, want laporte", sums[0].User)
	}
	if sums[0].Root != nil {
		t.Fatal("summaries must not carry span trees")
	}

	// /trace/{id} returns the full tree with pipeline child spans.
	code, body = get(t, ts, "laporte", "/trace/"+reqID)
	if code != http.StatusOK {
		t.Fatalf("/trace/%s = %d: %s", reqID, code, body)
	}
	var full traceExport
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatalf("/trace not JSON: %v\n%s", err, body)
	}
	if full.ID != reqID || full.Root == nil || full.Root.Name != "view" {
		t.Fatalf("trace export: %+v", full)
	}
	if full.Root.Attrs["status"] != "2xx" {
		t.Fatalf("root status attr = %q, want 2xx", full.Root.Attrs["status"])
	}
	if full.Spans < 3 || len(full.Root.Children) == 0 {
		t.Fatalf("expected pipeline child spans, got %d spans", full.Spans)
	}
	if !strings.Contains(body, "session_view") {
		t.Fatalf("trace tree missing session_view span:\n%s", body)
	}

	// Unknown IDs are 404; the trace endpoints themselves never trace.
	if code, _ := get(t, ts, "laporte", "/trace/nope"); code != http.StatusNotFound {
		t.Fatalf("/trace/nope = %d, want 404", code)
	}
	_, body = get(t, ts, "laporte", "/traces")
	if strings.Contains(body, `"name":"traces"`) {
		t.Fatal("reading /traces must not record traces of itself")
	}

	// The /metrics exposition links the endpoint series to a trace ID.
	_, metrics := get(t, ts, "", "/metrics")
	if !strings.Contains(metrics, "# EXEMPLAR xmlsec_http_request_duration_seconds") ||
		!strings.Contains(metrics, "trace_id=") {
		t.Fatalf("/metrics missing latency exemplar:\n%s", metrics[:min(len(metrics), 600)])
	}
}

// TestTracesOwnUserOnly: a trace is served only to the user whose request
// it records. robert cannot list franck's trace, and fetching it by ID
// answers exactly like an unknown ID. Without a user both endpoints refuse.
func TestTracesOwnUserOnly(t *testing.T) {
	db := testServerDB(t)
	if err := db.AddUser("franck", "patient"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/view", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.SetBasicAuth("franck", "")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	franckID := resp.Header.Get("X-Request-Id")
	if franckID == "" {
		t.Fatal("no X-Request-Id header")
	}

	listed := func(user string) bool {
		code, body := get(t, ts, user, "/traces")
		if code != http.StatusOK {
			t.Fatalf("%s /traces = %d: %s", user, code, body)
		}
		var sums []traceExport
		if err := json.Unmarshal([]byte(body), &sums); err != nil {
			t.Fatalf("/traces not JSON: %v\n%s", err, body)
		}
		found := false
		for _, sum := range sums {
			if sum.User != user {
				t.Errorf("%s /traces lists a trace of %q", user, sum.User)
			}
			found = found || sum.ID == franckID
		}
		return found
	}
	if !listed("franck") {
		t.Error("franck's /traces does not list franck's own trace")
	}
	if listed("robert") {
		t.Error("robert's /traces lists franck's trace")
	}
	if code, body := get(t, ts, "franck", "/trace/"+franckID); code != http.StatusOK {
		t.Fatalf("franck /trace/%s = %d: %s", franckID, code, body)
	}

	// Another user's trace and an unknown ID get the same answer, apart
	// from the ID echoed back and the request ID.
	answer := func(id string) (int, string) {
		code, body := get(t, ts, "robert", "/trace/"+id)
		body = strings.ReplaceAll(body, id, "ID")
		body, _, _ = strings.Cut(body, " (request ")
		return code, body
	}
	code, body := answer(franckID)
	unknownCode, unknownBody := answer("0123456789abcdef")
	if code != http.StatusNotFound || code != unknownCode || body != unknownBody {
		t.Errorf("robert fetching franck's trace = %d %q; an unknown ID = %d %q", code, body, unknownCode, unknownBody)
	}

	for _, path := range []string{"/traces", "/trace/" + franckID} {
		if code, _ := get(t, ts, "", path); code != http.StatusUnauthorized {
			t.Errorf("unauthenticated %s = %d, want 401", path, code)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	code, body := get(t, ts, "beaufort", "/explain?xpath="+
		"%2F%2Fdiagnosis%2Ftext%28%29") // //diagnosis/text()
	if code != http.StatusOK {
		t.Fatalf("/explain = %d: %s", code, body)
	}
	var ex struct {
		User       string `json:"user"`
		Consistent bool   `json:"consistent"`
		Nodes      []struct {
			Visibility string `json:"visibility"`
			Origin     string `json:"origin"`
			Privileges []struct {
				Privilege string `json:"privilege"`
				Granted   bool   `json:"granted"`
			} `json:"privileges"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatalf("/explain not JSON: %v\n%s", err, body)
	}
	if ex.User != "beaufort" || !ex.Consistent || len(ex.Nodes) != 2 {
		t.Fatalf("explain payload: %+v", ex)
	}
	for _, n := range ex.Nodes {
		if n.Visibility != "restricted" {
			t.Fatalf("secretary diagnosis verdict = %q, want restricted", n.Visibility)
		}
	}

	if code, _ := get(t, ts, "beaufort", "/explain"); code != http.StatusBadRequest {
		t.Fatal("missing xpath must be 400")
	}
	if code, _ := get(t, ts, "beaufort", "/explain?xpath=%2F%2F%2F"); code != http.StatusBadRequest {
		t.Fatal("bad xpath must be 400")
	}
	if code, _ := get(t, ts, "", "/explain?xpath=%2F"); code != http.StatusUnauthorized {
		t.Fatal("explain requires a user")
	}
}

// TestExplainBoundedByView: a user's /explain reports exactly the nodes
// /query returns for the same path. An explain that reached further would
// answer value tests over hidden data, such as robert's test of franck's
// diagnosis.
func TestExplainBoundedByView(t *testing.T) {
	ts := testServer(t)
	for _, expr := range []string{"//diagnosis[.='tonsillitis']", "//diagnosis", "/descendant-or-self::node()"} {
		code, body := get(t, ts, "robert", "/explain?xpath="+urlEscape(expr))
		if code != http.StatusOK {
			t.Fatalf("/explain %s = %d: %s", expr, code, body)
		}
		if strings.Contains(body, "franck") {
			t.Errorf("robert's /explain %s names franck's data:\n%s", expr, body)
		}
		var ex struct {
			Nodes []struct {
				Path string `json:"path"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal([]byte(body), &ex); err != nil {
			t.Fatalf("/explain not JSON: %v\n%s", err, body)
		}
		var got []string
		for _, n := range ex.Nodes {
			got = append(got, n.Path)
		}
		code, body = get(t, ts, "robert", "/query?xpath="+urlEscape(expr))
		if code != http.StatusOK {
			t.Fatalf("/query %s = %d: %s", expr, code, body)
		}
		var want []string
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			if path, _, ok := strings.Cut(line, "\t"); ok {
				want = append(want, path)
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: /explain reports %v, /query returns %v", expr, got, want)
		}
	}
}

// TestExplainIdenticalAcrossHiddenSibling: two documents that differ only
// in a patient record robert cannot see, placed before his own, must give
// robert byte-identical /explain bodies. A structural source identifier
// (/a0/a1 against /a0/a0) or the source's mutation counter in the body
// would tell him that the hidden record exists.
func TestExplainIdenticalAcrossHiddenSibling(t *testing.T) {
	const robert = `<robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert>`
	var bodies []string
	for _, xml := range []string{
		`<patients>` + robert + `</patients>`,
		`<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck>` + robert + `</patients>`,
	} {
		ts := httptest.NewServer(New(testServerDBOn(t, xml)))
		code, body := get(t, ts, "robert", "/explain?xpath="+urlEscape("/patients/*"))
		ts.Close()
		if code != http.StatusOK {
			t.Fatalf("/explain = %d: %s", code, body)
		}
		bodies = append(bodies, body)
	}
	if bodies[0] != bodies[1] {
		t.Errorf("robert's /explain depends on a record hidden from him:\nwithout: %s\nwith:    %s", bodies[0], bodies[1])
	}
	if !strings.Contains(bodies[0], `"/patients/robert"`) {
		t.Errorf("robert's /explain does not report his own record:\n%s", bodies[0])
	}
}

func TestSlowTraceThresholdOption(t *testing.T) {
	var buf bytes.Buffer
	db := testServerDB(t)
	srv := New(db, WithAccessLog(&buf), WithSlowTraceThreshold(time.Nanosecond))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if code, body := get(t, ts, "laporte", "/view"); code != http.StatusOK {
		t.Fatalf("/view = %d: %s", code, body)
	}
	if !strings.Contains(buf.String(), "slow trace") {
		t.Fatalf("slow trace not logged through the access logger:\n%s", buf.String())
	}
	// The default tracer stays untouched — the server holds its own.
	if obs.DefaultTracer() != nil {
		t.Fatal("server must not install a process default tracer")
	}
}
