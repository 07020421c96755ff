// Forced read-ladder tier (WithForcedTier / xmlsec-server -tier): every
// /query and /value runs on the pinned tier, the served tier is reported
// in X-Query-Tier, and a query the pinned tier cannot serve answers 409
// instead of silently falling through. The rewrite tier serves only the
// static plans of the unpinned path, so pinning it refuses every query.
package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"securexml/internal/core"
)

// getTier performs an authenticated GET and returns status, X-Query-Tier
// and body.
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

func tierServer(t *testing.T, tier core.Tier) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(testServerDB(t), WithForcedTier(tier)))
	t.Cleanup(ts.Close)
	return ts
}

func TestForcedTierPinsLadder(t *testing.T) {
	cases := []struct {
		tier core.Tier
		want string
	}{
		{core.TierQfilter, "qfilter"},
		{core.TierView, "view"},
	}
	for _, tc := range cases {
		ts := tierServer(t, tc.tier)
		status, tier := getTier(t, ts, "laporte", "/query?xpath=//service")
		if status != http.StatusOK {
			t.Errorf("tier %s: /query status %d, want 200", tc.want, status)
		}
		if tier != tc.want {
			t.Errorf("pinned %s but X-Query-Tier = %q", tc.want, tier)
		}
		// Scalar values are servable from every tier.
		status, tier = getTier(t, ts, "laporte", "/value?xpath="+`count(//service)`)
		if status != http.StatusOK {
			t.Errorf("tier %s: /value status %d, want 200", tc.want, status)
		}
		if tier != tc.want {
			t.Errorf("pinned %s but /value X-Query-Tier = %q", tc.want, tier)
		}
	}
	ts := tierServer(t, core.TierRewrite)
	for _, path := range []string{"/query?xpath=//service", "/value?xpath=count(//service)"} {
		if status, _ := getTier(t, ts, "laporte", path); status != http.StatusConflict {
			t.Errorf("pinned rewrite: %s status %d, want 409", path, status)
		}
	}
}

// TestForcedTierUnavailable: non-empty node-set values leak raw source
// nodes from the qfilter tier, so a pin there must refuse (409 Conflict)
// instead of falling through to the view.
func TestForcedTierUnavailable(t *testing.T) {
	ts := tierServer(t, core.TierQfilter)
	if status, _ := getTier(t, ts, "laporte", "/value?xpath=//service"); status != http.StatusConflict {
		t.Errorf("tier qfilter: node-set /value status %d, want 409", status)
	}
	// Unpinned, the same query descends to the view tier and succeeds.
	ts = testServer(t)
	status, tier := getTier(t, ts, "laporte", "/value?xpath=//service")
	if status != http.StatusOK {
		t.Errorf("auto: node-set /value status %d, want 200", status)
	}
	if tier != "view" {
		t.Errorf("auto: node-set /value served from %q, want view", tier)
	}
}
