package srcanalysis

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"securexml/internal/findings"
)

// The testdata packages are loaded once, alongside the real module, under
// synthetic import paths: type-checking the whole module with the source
// importer dominates the test's cost, so every test shares one Program.
const testPkgPrefix = "vettest/"

var (
	progOnce   sync.Once
	sharedProg *Program
	sharedErr  error
)

func loadShared(t *testing.T) *Program {
	t.Helper()
	progOnce.Do(func() {
		modDir, err := filepath.Abs("../..")
		if err != nil {
			sharedErr = err
			return
		}
		extra := make(map[string]string)
		for _, pass := range Passes() {
			for _, kind := range []string{"bad", "good"} {
				dir, err := filepath.Abs(filepath.Join("testdata", "src", pass, kind))
				if err != nil {
					sharedErr = err
					return
				}
				extra[testPkgPrefix+pass+"/"+kind] = dir
			}
		}
		sharedProg, sharedErr = Load(Config{ModuleDir: modDir, ExtraDirs: extra})
	})
	if sharedErr != nil {
		t.Fatalf("loading module + testdata: %v", sharedErr)
	}
	return sharedProg
}

// runPass analyzes one testdata package with one pass.
func runPass(t *testing.T, pass, pkg string, base *Baseline) *findings.Report {
	t.Helper()
	rep, err := loadShared(t).Run(Config{Packages: []string{pkg}, Passes: []string{pass}}, base)
	if err != nil {
		t.Fatalf("running %s on %s: %v", pass, pkg, err)
	}
	return rep
}

// triples renders findings as sorted pass/code/key triples for comparison.
func triples(rep *findings.Report) []string {
	out := make([]string, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		out = append(out, f.Pass+"/"+f.Code+"/"+f.Key)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSeededViolations proves each pass flags its seeded bad package with
// exactly the expected findings, and that each finding is an error (so
// make vet exits non-zero on any of them).
func TestSeededViolations(t *testing.T) {
	cases := []struct {
		pass string
		want []string
	}{
		{"viewbypass", []string{
			"viewbypass/raw-node-access/doc.XML",
			"viewbypass/unsecured-write/access.ExecuteOnViewCtx",
			"viewbypass/unsecured-write/baseline.Execute",
			"viewbypass/unsecured-write/xupdate.Execute",
		}},
		{"privconst", []string{
			"privconst/privilege-conversion/policy.Privilege(n)",
			"privconst/privilege-literal/3",
		}},
		{"obslabel", []string{
			"obslabel/nonconstant-label/fmt.Sprintf(\"stage_%s\", name)",
			"obslabel/nonconstant-label/fmt.Sprintf(\"u-%s\", user)",
			"obslabel/nonconstant-label/verdict(v)",
		}},
		{"ctxflow", []string{
			"ctxflow/ctx-background/context.Background",
			"ctxflow/ctx-shim/Fix",
			"ctxflow/ctx-shim/Handle",
			"ctxflow/ctx-unused/ctx",
		}},
		{"lockguard", []string{
			"lockguard/guard-escape/b.items",
			"lockguard/unguarded-access/b.items",
			"lockguard/unguarded-access/c.n",
			"lockguard/unguarded-access/c.total",
		}},
		{"cowdiscipline", []string{
			"cowdiscipline/shared-mutation/append(rs, 1)",
			"cowdiscipline/shared-mutation/delete(m, id)",
			"cowdiscipline/shared-mutation/m[id]",
		}},
		{"snapshotimmut", []string{
			"snapshotimmut/snapshot-mutator/v.Doc.Remove",
			"snapshotimmut/snapshot-write/v.Restricted",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.pass, func(t *testing.T) {
			rep := runPass(t, tc.pass, testPkgPrefix+tc.pass+"/bad", nil)
			if got := triples(rep); !equalStrings(got, tc.want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, tc.want)
			}
			if rep.ExitCode() != 2 {
				t.Errorf("exit code = %d, want 2 (errors)", rep.ExitCode())
			}
			for _, f := range rep.Findings {
				if f.Severity != findings.Error {
					t.Errorf("%s/%s at %s: severity %s, want error", f.Pass, f.Code, f.Pos, f.Severity)
				}
				if f.Pos == "" || f.Function == "" && f.Code != "privilege-literal" {
					t.Errorf("%s/%s: missing position or function anchor: %+v", f.Pass, f.Code, f)
				}
			}
		})
	}
}

// TestConformingPackagesClean proves the conforming twin of each bad
// package produces no findings: constructors, mediated sessions, constant
// labels and forwarded contexts all pass.
func TestConformingPackagesClean(t *testing.T) {
	for _, pass := range Passes() {
		t.Run(pass, func(t *testing.T) {
			rep := runPass(t, pass, testPkgPrefix+pass+"/good", nil)
			if len(rep.Findings) != 0 {
				t.Errorf("conforming package flagged: %v", triples(rep))
			}
			if rep.ExitCode() != 0 {
				t.Errorf("exit code = %d, want 0", rep.ExitCode())
			}
		})
	}
}

// TestBaselineSuppression proves a baseline entry suppresses exactly the
// finding it names — same pass, code, file, function and key — and
// nothing else, and that an entry matching nothing becomes a stale-entry
// error.
func TestBaselineSuppression(t *testing.T) {
	badFile := "internal/srcanalysis/testdata/src/viewbypass/bad/bad.go"
	base := &Baseline{Entries: []BaselineEntry{{
		Pass: "viewbypass", Code: "unsecured-write",
		File: badFile, Function: "Compare", Key: "baseline.Execute",
		Justification: "seeded covert-channel comparison",
	}}}
	rep := runPass(t, "viewbypass", testPkgPrefix+"viewbypass/bad", base)
	if rep.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", rep.Suppressed)
	}
	want := []string{
		"viewbypass/raw-node-access/doc.XML",
		"viewbypass/unsecured-write/access.ExecuteOnViewCtx",
		"viewbypass/unsecured-write/xupdate.Execute",
	}
	if got := triples(rep); !equalStrings(got, want) {
		t.Errorf("surviving findings mismatch\n got: %v\nwant: %v", got, want)
	}

	stale := &Baseline{Entries: []BaselineEntry{{
		Pass: "viewbypass", Code: "unsecured-write",
		File: badFile, Function: "NoSuchFunc", Key: "xupdate.ExecuteAll",
		Justification: "matches nothing",
	}}}
	rep = runPass(t, "viewbypass", testPkgPrefix+"viewbypass/bad", stale)
	if rep.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0", rep.Suppressed)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Pass == "baseline" && f.Code == "stale-entry" {
			found = true
			if f.Severity != findings.Error {
				t.Errorf("stale-entry severity = %s, want error", f.Severity)
			}
		}
	}
	if !found {
		t.Errorf("stale baseline entry not reported: %v", triples(rep))
	}
}

// TestRepoSelfScan proves the repository itself passes all seven passes
// under the committed baseline: no findings, and every baseline entry
// still matches something (no stale entries). This is the same invariant
// make vet enforces in CI.
func TestRepoSelfScan(t *testing.T) {
	modDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(filepath.Join(modDir, "vet-baseline.json"))
	if err != nil {
		t.Fatalf("loading committed baseline: %v", err)
	}
	rep, err := loadShared(t).Run(Config{}, base)
	if err != nil {
		t.Fatalf("self-scan: %v", err)
	}
	if len(rep.Findings) != 0 {
		for _, f := range rep.Findings {
			t.Errorf("unexpected finding: %s/%s %s %s key=%q", f.Pass, f.Code, f.Pos, f.Message, f.Key)
		}
	}
	// The committed baseline's 5 entries cover exactly the 6 intentionally
	// unsecured call sites (the two covertchannel probes share one entry):
	// the B3 write-floor pair, the B15 differential mirror, and the §2.2
	// covert-channel demos.
	if rep.Suppressed != 6 {
		t.Errorf("suppressed = %d, want 6 (update this with vet-baseline.json)", rep.Suppressed)
	}
	if rep.ExitCode() != 0 {
		t.Errorf("exit code = %d, want 0", rep.ExitCode())
	}
}

// TestTrustedPackageClassification pins the viewbypass trust boundary:
// every enforcement-core package holds the raw-node license, while the
// user-facing packages, internal/rewrite (whose static classifier reads no
// documents) and everything outside the module do not.
func TestTrustedPackageClassification(t *testing.T) {
	a := &analysis{prog: &Program{ModulePath: "securexml"}}
	trusted := []string{
		"securexml/internal/xmltree",
		"securexml/internal/xpath",
		"securexml/internal/view",
		"securexml/internal/policy",
		"securexml/internal/qfilter",
		"securexml/internal/core",
	}
	for _, path := range trusted {
		if !a.trustedPkg(path) {
			t.Errorf("trustedPkg(%q) = false, want true", path)
		}
	}
	untrusted := []string{
		"securexml/internal/shell",
		"securexml/internal/server",
		"securexml/internal/rewrite",
		"securexml/internal/shell/subpkg",
		"securexml/cmd/xmlsec-bench",
		"fmt",
		"vettest/viewbypass/bad",
	}
	for _, path := range untrusted {
		if a.trustedPkg(path) {
			t.Errorf("trustedPkg(%q) = true, want false", path)
		}
	}
}

// TestBaselineValidation proves malformed baselines are rejected.
func TestBaselineValidation(t *testing.T) {
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "missing.json")); err != nil {
		t.Errorf("missing baseline file should be an empty baseline, got %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"entries":[{"pass":"viewbypass","code":"x","file":"f"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(bad); err == nil {
		t.Error("entry without justification should be rejected")
	}
}

// TestUnknownPassAndPackage proves selection errors surface instead of
// silently analyzing nothing.
func TestUnknownPassAndPackage(t *testing.T) {
	p := loadShared(t)
	if _, err := p.Run(Config{Passes: []string{"nosuchpass"}}, nil); err == nil {
		t.Error("unknown pass should be an error")
	}
	if _, err := p.Run(Config{Packages: []string{"securexml/internal/nosuchpkg"}}, nil); err == nil {
		t.Error("unknown package should be an error")
	}
}
