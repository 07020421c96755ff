package shell

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securexml/internal/scenario"
)

// run executes a sequence of commands and returns the accumulated output;
// commands expected to fail carry a leading "!".
func run(t *testing.T, lines ...string) string {
	t.Helper()
	db, err := scenario.New()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sh := New(db, &out)
	for _, line := range lines {
		wantErr := strings.HasPrefix(line, "!")
		line = strings.TrimPrefix(line, "!")
		err := sh.Execute(line)
		if wantErr && err == nil {
			t.Fatalf("command %q: expected error", line)
		}
		if !wantErr && err != nil {
			t.Fatalf("command %q: %v", line, err)
		}
	}
	return out.String()
}

func TestLoginAndWhoami(t *testing.T) {
	out := run(t,
		"whoami",
		"login beaufort",
		"whoami",
		"logout",
		"whoami",
		"!login mallory",
		"!login doctor",
		"!login",
	)
	if !strings.Contains(out, "not logged in") || !strings.Contains(out, "beaufort") {
		t.Errorf("output:\n%s", out)
	}
}

func TestViewAndQuery(t *testing.T) {
	out := run(t,
		"login beaufort",
		"view",
		"query //diagnosis",
		"value count(//RESTRICTED)",
		"!query",
		"!query //[",
		"!value",
	)
	if !strings.Contains(out, "RESTRICTED") {
		t.Errorf("secretary view/query missing RESTRICTED:\n%s", out)
	}
	if strings.Contains(out, "tonsillitis") {
		t.Error("secretary shell leaks diagnosis content")
	}
	if !strings.Contains(out, "(2 nodes)") {
		t.Errorf("query count missing:\n%s", out)
	}
}

func TestExplainCommand(t *testing.T) {
	out := run(t,
		"!explain //diagnosis", // requires a session
		"login beaufort",
		"!explain", // requires an xpath
		"explain //diagnosis/text()",
	)
	for _, want := range []string{
		"explain //diagnosis/text() as beaufort",
		"restricted",
		"read     denied by rule(deny,read,//diagnosis/node(),secretary",
		"defeats rule(accept,read,/descendant-or-self::node(),staff",
		"position granted by",
		"cell=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "MISMATCH") || strings.Contains(out, "WARNING") {
		t.Fatalf("paper scenario must explain consistently:\n%s", out)
	}
	// Source identifiers (/a0/a1) encode hidden siblings.
	if strings.Contains(out, "/a0") {
		t.Fatalf("explain prints a source identifier:\n%s", out)
	}
}

func TestUpdateCommands(t *testing.T) {
	out := run(t,
		"login laporte",
		"update /patients/franck/diagnosis pharyngitis",
		"query /patients/franck/diagnosis/text()",
		"remove /patients/robert/diagnosis/text()",
		"append /patients/robert/diagnosis <note>pending</note>",
		"!rename",
		"!update /patients/franck/diagnosis",
		"!append /patients/franck",
		"!append /patients/franck <unclosed",
		"!remove",
	)
	if !strings.Contains(out, "pharyngitis") {
		t.Errorf("update not visible:\n%s", out)
	}
	if !strings.Contains(out, "applied=1") {
		t.Errorf("op results missing:\n%s", out)
	}
}

func TestDeniedUpdateShowsSkips(t *testing.T) {
	out := run(t,
		"login beaufort",
		"update /patients/franck/diagnosis leak",
	)
	if !strings.Contains(out, "applied=0") || !strings.Contains(out, "skipped") {
		t.Errorf("refusal not reported:\n%s", out)
	}
	if strings.Contains(out, "/a0") {
		t.Errorf("skip report prints a source identifier:\n%s", out)
	}
}

func TestAdminCommands(t *testing.T) {
	out := run(t,
		"addrole intern doctor",
		"adduser kim intern",
		"grant read kim //service",
		"revoke read kim //service/text()",
		"rules",
		"users",
		"roles",
		"stats",
		"audit 3",
		"!grant fly kim //x",
		"!grant read ghost //x",
		"!grant",
		"!addrole",
		"!adduser",
		"!badcommand",
	)
	if !strings.Contains(out, "kim") || !strings.Contains(out, "intern") {
		t.Errorf("admin output:\n%s", out)
	}
	if !strings.Contains(out, "rule(deny,read,//service/text(),kim,") {
		t.Errorf("rules listing missing revoke:\n%s", out)
	}
	if !strings.Contains(out, "nodes=12") {
		t.Errorf("stats missing:\n%s", out)
	}
}

// TestStatsTelemetry exercises the pipeline and asserts stats reports the
// observability snapshot: cache effectiveness, session-op counters and
// per-stage latency quantiles.
func TestStatsTelemetry(t *testing.T) {
	out := run(t,
		"login laporte",
		"query //diagnosis",
		"query //diagnosis",
		"stats",
	)
	for _, want := range []string{
		"view-cache: hits=",
		"hit-rate=",
		"session-op: query ok=",
		"view_materialize",
		"p95=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats telemetry missing %q:\n%s", want, out)
		}
	}
}

func TestSaveOpenCycle(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "db.sxml")
	db, err := scenario.New()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sh := New(db, &out)
	cmds := []string{
		"save " + snap,
		"login laporte",
		"remove //diagnosis/text()",
		"open " + snap,
		"login laporte",
		"query //diagnosis/text()",
	}
	for _, c := range cmds {
		if err := sh.Execute(c); err != nil {
			t.Fatalf("%q: %v", c, err)
		}
	}
	if !strings.Contains(out.String(), "tonsillitis") {
		t.Errorf("restore did not bring data back:\n%s", out.String())
	}
	if sh.DB() == db {
		t.Error("open did not swap the database")
	}
	if sh.User() == "laporte" && !strings.Contains(out.String(), "log in again") {
		t.Error("open kept the stale session silently")
	}
	// Error paths.
	if err := sh.Execute("save"); err == nil {
		t.Error("save without path accepted")
	}
	if err := sh.Execute("open"); err == nil {
		t.Error("open without path accepted")
	}
	if err := sh.Execute("open /nonexistent/nope.sxml"); err == nil {
		t.Error("open of missing file accepted")
	}
	if err := sh.Execute("save /nonexistent/nope.sxml"); err == nil {
		t.Error("save into missing dir accepted")
	}
}

func TestSessionRequired(t *testing.T) {
	run(t,
		"!view",
		"!query //x",
		"!value 1",
		"!remove //x",
	)
}

func TestHelpAndNoop(t *testing.T) {
	out := run(t, "help", "", "quit")
	if !strings.Contains(out, "login <user>") {
		t.Error("help output missing")
	}
}

func TestSourceVisibleToAdminCommand(t *testing.T) {
	out := run(t, "source")
	if !strings.Contains(out, "tonsillitis") {
		t.Error("source should show the raw document")
	}
}

func TestTransformCommand(t *testing.T) {
	dir := t.TempDir()
	sheetPath := filepath.Join(dir, "report.xsl")
	sheet := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	  <xsl:template match="/"><r><xsl:value-of select="count(/patients/*)"/></xsl:template>
	</xsl:stylesheet>`
	// Intentionally malformed first (unclosed <r>), to hit the error path.
	if err := osWriteFile(sheetPath, sheet); err != nil {
		t.Fatal(err)
	}
	db, err := scenario.New()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sh := New(db, &out)
	if err := sh.Execute("login laporte"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Execute("transform " + sheetPath); err == nil {
		t.Error("malformed stylesheet accepted")
	}
	good := `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	  <xsl:template match="/"><r><xsl:value-of select="count(/patients/*)"/></r></xsl:template>
	</xsl:stylesheet>`
	if err := osWriteFile(sheetPath, good); err != nil {
		t.Fatal(err)
	}
	if err := sh.Execute("transform " + sheetPath); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<r>2</r>") {
		t.Errorf("transform output:\n%s", out.String())
	}
	if err := sh.Execute("transform"); err == nil {
		t.Error("missing path accepted")
	}
	if err := sh.Execute("transform /nonexistent.xsl"); err == nil {
		t.Error("missing file accepted")
	}
}

func osWriteFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestLintCommand(t *testing.T) {
	out := run(t, "lint")
	if !strings.Contains(out, "no findings") {
		t.Errorf("lint on the paper policy: %q", out)
	}
	out = run(t,
		"grant update secretary //diagnosis/node()",
		"lint",
	)
	if !strings.Contains(out, "covert-channel-hazard") {
		t.Errorf("lint after covert grant: %q", out)
	}
}

func TestLintFixCommand(t *testing.T) {
	out := run(t, "lint -fix")
	if !strings.Contains(out, "no findings") {
		t.Errorf("lint -fix on the paper policy: %q", out)
	}
	// Reopen the secretary diagnosis deny: lint -fix must print the
	// finding together with a validated repair suggestion.
	out = run(t,
		"grant read secretary //diagnosis/node()",
		"lint -fix",
	)
	if !strings.Contains(out, "conflict-overlap") {
		t.Errorf("lint -fix after reopening grant: %q", out)
	}
	if !strings.Contains(out, "repair  conflict-overlap") {
		t.Errorf("lint -fix printed no repair: %q", out)
	}
}
