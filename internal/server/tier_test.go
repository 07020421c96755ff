// Forced view route (WithForcedTier(core.TierView)): every /query and
// /value runs on the user's materialized view, and the served route is
// reported in X-Query-Tier.
package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"securexml/internal/core"
)

// getTier performs an authenticated GET and returns status and
// X-Query-Tier.
func getTier(t *testing.T, ts *httptest.Server, user, path string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.SetBasicAuth(user, "")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Query-Tier")
}

func TestForcedTierPinsLadder(t *testing.T) {
	ts := httptest.NewServer(New(testServerDB(t), WithForcedTier(core.TierView)))
	t.Cleanup(ts.Close)
	for _, path := range []string{
		"/query?xpath=//service",
		"/value?xpath=count(//service)",
		"/value?xpath=//service",
	} {
		status, tier := getTier(t, ts, "laporte", path)
		if status != http.StatusOK {
			t.Errorf("pinned view: %s status %d, want 200", path, status)
		}
		if tier != "view" {
			t.Errorf("pinned view: %s X-Query-Tier = %q, want view", path, tier)
		}
	}
	// Unpinned, every read runs on the source, node-set values included.
	ts = testServer(t)
	for path, want := range map[string]string{
		"/query?xpath=//service": "qfilter",
		"/value?xpath=//service": "qfilter",
	} {
		if status, tier := getTier(t, ts, "laporte", path); status != http.StatusOK || tier != want {
			t.Errorf("auto: %s status %d X-Query-Tier %q, want 200 %s", path, status, tier, want)
		}
	}
}
