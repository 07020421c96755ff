// Package shell implements the command interpreter behind cmd/xmlsec-shell:
// login/session management, view and query display, the six XUpdate
// operations, policy administration and snapshot persistence. It is
// separated from the binary so the command surface is unit-testable.
package shell

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"securexml/internal/core"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/xupdate"
)

// HelpText lists the commands; the binary prints it for "help".
const HelpText = `Commands:
  login <user>                    open a session (e.g. login beaufort)
  logout                          close the session
  whoami                          show the session user
  view                            print your authorized view
  query <xpath>                   select nodes on your view
  value <xpath>                   evaluate an expression (count(...), ...)
  explain <xpath>                 why each node of your view it selects is
                                  shown: the winning rule, what it defeated,
                                  cell origin
  rename <path> <new-label>       xupdate:rename
  update <path> <new-content>     xupdate:update
  append <path> <xml-fragment>    xupdate:append
  insert-before <path> <xml>      xupdate:insert-before
  insert-after <path> <xml>       xupdate:insert-after
  remove <path>                   xupdate:remove
  grant <priv> <subject> <path>   add an accept rule (admin)
  revoke <priv> <subject> <path>  add a deny rule (admin)
  addrole <name> [parents...]     declare a role (admin)
  adduser <name> [roles...]       declare a user (admin)
  rules | users | roles | stats   inspect the database
  lint [-fix]                     static policy analysis (admin); -fix adds repairs
  source                          print the raw document (admin)
  save <file>                     write a durable snapshot (admin)
  open <file>                     restore a snapshot (admin)
  transform <stylesheet-file>     run XSLT through your security filter
  audit [n]                       print the last n audit entries
  help | quit`

// Shell interprets commands against a database, writing results to out.
type Shell struct {
	db      *core.Database
	session *core.Session
	out     io.Writer
}

// New builds a shell over db writing to out.
func New(db *core.Database, out io.Writer) *Shell {
	return &Shell{db: db, out: out}
}

// DB returns the current database (it changes when "open" restores one).
func (sh *Shell) DB() *core.Database { return sh.db }

// User returns the session login, or "" when logged out.
func (sh *Shell) User() string {
	if sh.session == nil {
		return ""
	}
	return sh.session.User()
}

func (sh *Shell) printf(format string, args ...any) {
	fmt.Fprintf(sh.out, format, args...)
}

// printTelemetry appends the process-wide observability snapshot to the
// stats output: view-cache effectiveness, per-op session counters, and
// per-stage latency quantiles.
func (sh *Shell) printTelemetry() {
	snap := obs.Default().Snapshot()
	var hits, misses uint64
	for _, c := range snap.Counters {
		switch c.Name {
		case "xmlsec_view_cache_hits_total":
			hits += c.Value
		case "xmlsec_view_cache_misses_total":
			misses += c.Value
		}
	}
	if hits+misses > 0 {
		sh.printf("view-cache: hits=%d misses=%d hit-rate=%.2f\n",
			hits, misses, float64(hits)/float64(hits+misses))
	}
	for _, c := range snap.Counters {
		if c.Name == "xmlsec_session_ops_total" && c.Value > 0 {
			sh.printf("session-op: %s %s=%d\n", c.Labels["op"], c.Labels["outcome"], c.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == obs.StageMetric && h.Count > 0 {
			sh.printf("stage %-18s count=%-6d p50=%.6fs p95=%.6fs p99=%.6fs\n",
				h.Labels["stage"], h.Count, h.P50, h.P95, h.P99)
		}
	}
}

// Execute runs one command line. Returned errors are user-facing (bad
// command, refused operation, unreadable file); the shell state stays
// consistent either way.
func (sh *Shell) Execute(line string) error {
	cmd, rest := splitWord(line)
	switch cmd {
	case "", "quit", "exit":
		return nil
	case "help":
		sh.printf("%s\n", HelpText)
		return nil
	case "login":
		user, _ := splitWord(rest)
		if user == "" {
			return fmt.Errorf("usage: login <user>")
		}
		s, err := sh.db.Session(user)
		if err != nil {
			return err
		}
		sh.session = s
		return nil
	case "logout":
		sh.session = nil
		return nil
	case "whoami":
		if sh.session == nil {
			sh.printf("not logged in\n")
		} else {
			sh.printf("%s\n", sh.session.User())
		}
		return nil
	case "rules":
		for i, r := range sh.db.Rules() {
			sh.printf("%2d. %s\n", i+1, r.String())
		}
		return nil
	case "users":
		sh.printf("%s\n", strings.Join(sh.db.Users(), ", "))
		return nil
	case "roles":
		sh.printf("%s\n", strings.Join(sh.db.Roles(), ", "))
		return nil
	case "stats":
		st := sh.db.Stats()
		sh.printf("nodes=%d rules=%d users=%d roles=%d doc-version=%d policy-epoch=%d\n",
			st.Nodes, st.Rules, st.Users, st.Roles, st.DocVersion, st.PolicyEpoch)
		sh.printTelemetry()
		return nil
	case "source":
		sh.printf("%s\n", sh.db.SourceXML())
		return nil
	case "lint":
		if strings.TrimSpace(rest) == "-fix" {
			sh.printf("%s", sh.db.PlanRepairs().Canonical().Text())
			return nil
		}
		sh.printf("%s", sh.db.AnalyzePolicy().Text())
		return nil
	case "save":
		return sh.save(rest)
	case "open":
		return sh.open(rest)
	case "audit":
		entries := sh.db.Audit()
		n := 10
		fmt.Sscanf(rest, "%d", &n)
		if n > len(entries) {
			n = len(entries)
		}
		for _, e := range entries[len(entries)-n:] {
			sh.printf("#%d %-10s %-8s %-50s %s\n", e.Seq, e.User, e.Action, e.Detail, e.Outcome)
		}
		return nil
	case "grant", "revoke":
		parts := strings.Fields(rest)
		if len(parts) < 3 {
			return fmt.Errorf("usage: %s <priv> <subject> <path>", cmd)
		}
		priv, err := policy.ParsePrivilege(parts[0])
		if err != nil {
			return err
		}
		path := strings.Join(parts[2:], " ")
		if cmd == "grant" {
			return sh.db.Grant(priv, path, parts[1])
		}
		return sh.db.Revoke(priv, path, parts[1])
	case "addrole":
		parts := strings.Fields(rest)
		if len(parts) == 0 {
			return fmt.Errorf("usage: addrole <name> [parents...]")
		}
		return sh.db.AddRole(parts[0], parts[1:]...)
	case "adduser":
		parts := strings.Fields(rest)
		if len(parts) == 0 {
			return fmt.Errorf("usage: adduser <name> [roles...]")
		}
		return sh.db.AddUser(parts[0], parts[1:]...)
	}
	return sh.sessionCommand(cmd, rest)
}

func (sh *Shell) sessionCommand(cmd, rest string) error {
	if sh.session == nil {
		return fmt.Errorf("log in first (login <user>)")
	}
	s := sh.session
	switch cmd {
	case "view":
		out, err := s.ViewXML()
		if err != nil {
			return err
		}
		sh.printf("%s\n", out)
		return nil
	case "query":
		if rest == "" {
			return fmt.Errorf("usage: query <xpath>")
		}
		results, tier, err := s.QueryTierCtx(context.Background(), rest, core.TierAuto)
		if err != nil {
			return err
		}
		for _, r := range results {
			sh.printf("%-40s %-9s %s\n", r.Path, r.Kind, r.Value)
		}
		sh.printf("(%d nodes) [%s]\n", len(results), tier)
		return nil
	case "value":
		if rest == "" {
			return fmt.Errorf("usage: value <expression>")
		}
		v, tier, err := s.QueryValueTierCtx(context.Background(), rest, core.TierAuto)
		if err != nil {
			return err
		}
		sh.printf("%s (%s) [%s]\n", v.Str(), v.TypeName(), tier)
		return nil
	case "explain":
		if rest == "" {
			return fmt.Errorf("usage: explain <xpath>")
		}
		ex, err := s.Explain(rest)
		if err != nil {
			return err
		}
		sh.printExplanation(ex)
		return nil
	case "rename", "update":
		path, arg := splitWord(rest)
		if path == "" || arg == "" {
			return fmt.Errorf("usage: %s <path> <value>", cmd)
		}
		kind := xupdate.Rename
		if cmd == "update" {
			kind = xupdate.Update
		}
		op, err := xupdate.NewOp(kind, path, arg)
		if err != nil {
			return err
		}
		return sh.runOp(op)
	case "append", "insert-before", "insert-after":
		path, frag := splitWord(rest)
		if path == "" || frag == "" {
			return fmt.Errorf("usage: %s <path> <xml-fragment>", cmd)
		}
		kind := map[string]xupdate.Kind{
			"append": xupdate.Append, "insert-before": xupdate.InsertBefore,
			"insert-after": xupdate.InsertAfter,
		}[cmd]
		op, err := xupdate.NewOp(kind, path, frag)
		if err != nil {
			return fmt.Errorf("fragment: %w", err)
		}
		return sh.runOp(op)
	case "remove":
		if rest == "" {
			return fmt.Errorf("usage: remove <path>")
		}
		op, err := xupdate.NewOp(xupdate.Remove, rest, "")
		if err != nil {
			return err
		}
		return sh.runOp(op)
	case "transform":
		if rest == "" {
			return fmt.Errorf("usage: transform <stylesheet-file>")
		}
		src, err := os.ReadFile(rest)
		if err != nil {
			return err
		}
		out, err := s.Transform(string(src))
		if err != nil {
			return err
		}
		sh.printf("%s\n", out)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

// printExplanation renders a decision-provenance report: one block per
// matched node with its visibility verdict, cell origin, and per-privilege
// rule story (winner first, then what it defeated).
func (sh *Shell) printExplanation(ex *core.Explanation) {
	sh.printf("explain %s as %s (%d applicable rules, policy epoch %d)\n",
		ex.XPath, ex.User, ex.RulesApplicable, ex.PolicyEpoch)
	for _, n := range ex.Nodes {
		sh.printf("%s [%s] %s, cell=%s\n", n.Path, n.Kind, n.Visibility, n.Origin)
		for _, ps := range n.Privileges {
			if ps.Winner == nil {
				if ps.Privilege == "read" || ps.Privilege == "position" {
					sh.printf("  %-8s denied (closed world: no rule addresses the node)\n", ps.Privilege)
				}
				continue
			}
			verdict := "denied"
			if ps.Granted {
				verdict = "granted"
			}
			sh.printf("  %-8s %s by %s\n", ps.Privilege, verdict, ps.Winner.Rule)
			for _, d := range ps.Defeated {
				sh.printf("           defeats %s\n", d.Rule)
			}
		}
		for _, m := range n.Mismatches {
			sh.printf("  MISMATCH: %s\n", m)
		}
	}
	if !ex.Consistent {
		sh.printf("WARNING: provenance disagrees with the production decision (see mismatches)\n")
	}
	sh.printf("(%d nodes)\n", len(ex.Nodes))
}

func (sh *Shell) runOp(op *xupdate.Op) error {
	res, err := sh.session.Update(op)
	if err != nil {
		return err
	}
	sh.printf("selected=%d applied=%d created=%d removed=%d\n",
		res.Selected, res.Applied, res.Created, res.Removed)
	for _, sk := range res.Skipped {
		sh.printf("  skipped: %s\n", sk.Reason)
	}
	return nil
}

func (sh *Shell) save(path string) error {
	if path == "" {
		return fmt.Errorf("usage: save <file>")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sh.db.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sh.printf("saved to %s\n", path)
	return nil
}

func (sh *Shell) open(path string) error {
	if path == "" {
		return fmt.Errorf("usage: open <file>")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	restored, err := core.Open(f)
	f.Close()
	if err != nil {
		return err
	}
	sh.db = restored
	sh.session = nil
	st := restored.Stats()
	sh.printf("restored %s: %d nodes, %d rules, %d users (log in again)\n",
		path, st.Nodes, st.Rules, st.Users)
	return nil
}

func splitWord(s string) (first, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i+1:])
}
