// Package core assembles the paper's model into a usable secure XML
// database: a Database holds the source document, the subject hierarchy and
// the security policy; Sessions expose per-user queries and updates with the
// paper's access controls enforced throughout.
//
// Reads (§4.4.1): every query returns what it would over the user's
// axiom-15–17 view. It is evaluated on the source under the session's
// permissions, which are kept current by delta patching (see secureRead).
// Writes (§4.4.2): every XUpdate operation selects its targets as the view
// shows them, on the source under the same maintained permissions, and
// checks per-node privileges (axioms 18–25).
//
// Database is safe for concurrent use, with lock-free snapshot reads:
// the document, subject hierarchy and policy live in an immutable
// generation published through an atomic pointer (see generation.go).
// Readers pin one generation per request and never block on writers;
// writers batch into a group-commit queue whose leader applies each round
// against copy-on-write clones and publishes one new generation per round
// (see commit.go).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securexml/internal/access"
	"securexml/internal/journal"
	"securexml/internal/labeling"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/policyanalysis"
	"securexml/internal/qfilter"
	"securexml/internal/storage"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xslt"
	"securexml/internal/xupdate"
)

// Telemetry: session-level stages plus the per-session permission cache
// (the registry's hit rate is the leverage of caching a user's axiom-14
// permissions across requests within one (document version, policy
// epoch) window). The counters keep the view-cache names their dashboards
// and benchmark read.
var (
	queryStage     = obs.Stage("session_query")
	valueStage     = obs.Stage("session_query_value")
	viewStage      = obs.Stage("session_view")
	updateStage    = obs.Stage("session_update")
	applyStage     = obs.Stage("session_apply")
	transformStage = obs.Stage("session_transform")
	serializeStage = obs.Stage("view_serialize")
	xpathStage     = obs.Stage("xpath_eval")

	cacheHits      = obs.Default().Counter("xmlsec_view_cache_hits_total")
	cacheMissCold  = obs.Default().Counter("xmlsec_view_cache_misses_total", "reason", "cold")
	cacheMissDoc   = obs.Default().Counter("xmlsec_view_cache_misses_total", "reason", "doc_version")
	cacheMissEpoch = obs.Default().Counter("xmlsec_view_cache_misses_total", "reason", "policy_epoch")

	// Incremental maintenance fallbacks, by reason: the policy is not
	// chain-only for the user (ineligible), the delta log no longer covers
	// the cached version (gap), or patching failed mid-batch (error).
	// Successful patches are counted by policy.NodeEvaluator.PatchCtx
	// (xmlsec_view_incremental_applied_total).
	incFallbackIneligible = obs.Default().Counter("xmlsec_view_incremental_fallback_total", "reason", "ineligible")
	incFallbackGap        = obs.Default().Counter("xmlsec_view_incremental_fallback_total", "reason", "gap")
	incFallbackError      = obs.Default().Counter("xmlsec_view_incremental_fallback_total", "reason", "error")

	// Where a write request's permissions came from, counted each time it
	// needs them for a new document state (roundPerms): the writing
	// session's maintained permissions of the round's base generation, as
	// they are (source="session"), or permissions computed in the round for
	// its changed state, patched or derived afresh.
	securedViewSession = obs.Default().Counter("xmlsec_secured_view_total", "source", "session")
	securedViewRebuild = obs.Default().Counter("xmlsec_secured_view_total", "source", "rebuild")

	// auditDepth tracks the audit ring's current occupancy, so operators
	// can see eviction pressure (the ring drops oldest entries at the
	// configured limit) before entries are silently lost.
	auditDepth = obs.Default().Gauge("xmlsec_audit_ring_depth")
)

// Tier labels the route of the secured read path that served a read
// (§4.4.1): the source under the session's maintained permissions
// (TierQfilter), which serves every read, or the specification
// (TierView): a fresh materialization of the user's view, taken only when
// a caller pins it as the reference the other route is checked against.
type Tier int

// The read routes.
const (
	TierQfilter Tier = iota
	TierView
	numTiers
)

// TierAuto is the sentinel for normal routing: every read on TierQfilter.
// It is what QueryTierCtx and QueryValueTierCtx take unless a caller pins
// the view.
const TierAuto Tier = -1

// String names the tier.
func (t Tier) String() string { return t.MetricLabel() }

// MetricLabel returns the tier's telemetry label; every branch is a
// literal so labels stay compile-time bounded (xmlsec-vet obslabel).
func (t Tier) MetricLabel() string {
	switch t {
	case TierQfilter:
		return "qfilter"
	case TierView:
		return "view"
	default:
		return "unknown"
	}
}

// Telemetry: queries served per route, resolved once.
var queryTierCounters = func() (c [numTiers]*obs.Counter) {
	for t := Tier(0); t < numTiers; t++ {
		c[t] = obs.Default().Counter("xmlsec_query_tier_total", "tier", t.MetricLabel())
	}
	return
}()

// nodeSetValueFallbacks counts value queries answered with a non-empty
// node-set, each copied through the permission filter
// (xmltree.CopyFiltered). The metric keeps the rewrite-fallback name its
// dashboards and benchmark already read.
var nodeSetValueFallbacks = obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "nodeset_value")

// sessionOp counts one session operation by name and outcome (ok | error).
func sessionOp(op, outcome string) {
	obs.Default().Counter("xmlsec_session_ops_total", "op", op, "outcome", outcome).Inc()
}

// Errors returned by core operations.
var (
	ErrUnknownUser = errors.New("core: unknown user")
	ErrNotUser     = errors.New("core: sessions are for users, not roles")
)

// Option configures a Database.
type Option func(*Database)

// WithScheme selects the labeling scheme (default fracpath).
func WithScheme(s labeling.Scheme) Option {
	return func(db *Database) { db.scheme = s }
}

// WithAuditLimit bounds the in-memory audit log (default 4096 entries; the
// oldest entries are dropped first). A limit of 0 disables auditing.
func WithAuditLimit(n int) Option {
	return func(db *Database) { db.auditLimit = n }
}

// WithJournal attaches an operation log: every write request that applied
// anything is appended, by the commit leader in commit order, as the
// <xupdate:modifications> document of the ops that ran, framed with its
// user. seqStart continues an existing journal (0 starts fresh); after
// Recover, pass the returned last sequence number.
func WithJournal(w io.Writer, seqStart uint64) Option {
	return func(db *Database) { db.journal = journal.NewWriter(w, seqStart) }
}

// Database is a secure XML database.
type Database struct {
	// Configuration, set by Options (and AttachJournal) before the
	// database is shared; immutable while requests are in flight, so it
	// needs no lock.
	scheme     labeling.Scheme
	auditLimit int
	journal    *journal.Writer

	// current is the published generation (see generation.go). One
	// atomic load pins a consistent (document, subjects, policy)
	// snapshot for a whole request; the commit leader is the only
	// storer.
	current atomic.Pointer[generation]

	// Group-commit state: writers enqueue under commitMu; the first
	// arriver becomes the leader and drains the queue in rounds with the
	// lock dropped while applying (see commit.go).
	commitMu sync.Mutex
	queue    []*commitReq
	leader   bool

	// The audit ring has its own lock so lock-free read paths can still
	// append entries.
	auditMu  sync.Mutex
	audit    []AuditEntry
	auditSeq uint64

	// sessions holds the one session of each user handed out by Session,
	// so every request of a user hits one permission cache instead of
	// re-deriving per connection.
	sessMu   sync.Mutex
	sessions map[string]*Session
}

// New creates an empty database: no document, no subjects, no rules.
func New(opts ...Option) *Database {
	db := &Database{
		scheme:     labeling.NewFracPath(),
		auditLimit: 4096,
		sessions:   make(map[string]*Session),
	}
	for _, o := range opts {
		o(db)
	}
	db.install(xmltree.New(db.scheme), subject.NewHierarchy(), policy.New())
	return db
}

// LoadXML replaces the database content with the document read from r.
func (db *Database) LoadXML(r io.Reader) error {
	doc, err := xmltree.Parse(r, xmltree.ParseOptions{Scheme: db.scheme})
	if err != nil {
		return err
	}
	db.submit(func(c *commitCtx) {
		c.doc = doc
		c.docGen++
		c.docReset = true
		c.batches = nil
		db.record("system", "load", fmt.Sprintf("%d nodes", doc.Len()), "ok")
	})
	return nil
}

// LoadXMLString is LoadXML over a string.
func (db *Database) LoadXMLString(s string) error { return db.LoadXML(strings.NewReader(s)) }

// Save writes a durable snapshot of the database — the document with its
// persistent identifiers, the subject hierarchy and the policy — to w.
// The audit log is not part of the snapshot (export it via Audit). The
// snapshot is one pinned generation: a commit racing with Save lands in
// the next generation and is simply not part of this snapshot.
func (db *Database) Save(w io.Writer) error {
	g := db.gen()
	rules := make([]policy.Rule, 0, g.policy.Len())
	for _, r := range g.policy.Rules() {
		rules = append(rules, *r)
	}
	return storage.Write(w, &storage.Snapshot{
		SchemeName: db.scheme.Name(),
		Doc:        g.doc,
		Subjects:   g.subjects,
		Rules:      rules,
	})
}

// Open restores a database from a snapshot written by Save. Node
// identifiers, subjects and rule priorities are restored exactly; rule
// paths are recompiled (a snapshot from a newer, incompatible grammar
// fails here rather than at query time).
func Open(r io.Reader, opts ...Option) (*Database, error) {
	snap, err := storage.Read(r)
	if err != nil {
		return nil, err
	}
	scheme, err := labeling.ByName(snap.SchemeName)
	if err != nil {
		return nil, err
	}
	db := New(append([]Option{WithScheme(scheme)}, opts...)...)
	// Assemble the restored components privately, then publish them as one
	// generation — the database has not escaped yet, so nothing observes
	// the intermediate state.
	pol := policy.New()
	for _, rule := range snap.Rules {
		if err := pol.Add(snap.Subjects, rule); err != nil {
			return nil, fmt.Errorf("core: restoring rule %s: %w", rule.String(), err)
		}
	}
	db.install(snap.Doc, snap.Subjects, pol)
	db.record("system", "open", fmt.Sprintf("%d nodes, %d rules", snap.Doc.Len(), pol.Len()), "ok")
	return db, nil
}

// --- administration -----------------------------------------------------------

// AddRole declares a role under optional parent roles. Like every admin
// operation it rides the group-commit queue (see admin). A new role has no
// members, so it keeps the policy epoch.
func (db *Database) AddRole(name string, parents ...string) error {
	return db.admin("add-role", name, false, func(c *commitCtx) error {
		return c.mutableSubjects().AddRole(name, parents...)
	})
}

// AddUser declares a user belonging to the given roles. A new user is
// nobody's ancestor, so it keeps the policy epoch.
func (db *Database) AddUser(name string, roles ...string) error {
	return db.admin("add-user", name, false, func(c *commitCtx) error {
		return c.mutableSubjects().AddUser(name, roles...)
	})
}

// Grant appends an accept rule (latest priority, §4.3 discipline).
func (db *Database) Grant(priv policy.Privilege, path, subj string) error {
	return db.admin("grant", fmt.Sprintf("%s on %s to %s", priv, path, subj), true, func(c *commitCtx) error {
		return c.mutablePolicy().Grant(c.curSubjects(), priv, path, subj)
	})
}

// Revoke appends a deny rule (latest priority).
func (db *Database) Revoke(priv policy.Privilege, path, subj string) error {
	return db.admin("revoke", fmt.Sprintf("%s on %s from %s", priv, path, subj), true, func(c *commitCtx) error {
		return c.mutablePolicy().Revoke(c.curSubjects(), priv, path, subj)
	})
}

// AddRule inserts a rule with an explicit priority.
func (db *Database) AddRule(r policy.Rule) error {
	return db.admin("add-rule", r.String(), true, func(c *commitCtx) error {
		return c.mutablePolicy().Add(c.curSubjects(), r)
	})
}

// admin runs one change of the hierarchy or the policy as a commit
// request. change edits the round's scratch clones (mutableSubjects,
// mutablePolicy); when it succeeds the round publishes a new generation
// that shares the document pointer, so admin-only rounds copy no tree. A
// failed change marks nothing changed, so on its own it publishes nothing.
//
// moveEpoch says whether the change can alter an existing subject's perm.
// Only then does the round bump the policy epoch, which discards every
// session's permissions. A new subject gives no existing subject a new
// ancestor (axioms 11 and 12), so by axiom 14 their perms stand, and their
// sessions stay warm; the new user has no session yet, since Session
// refuses unknown users.
func (db *Database) admin(action, detail string, moveEpoch bool, change func(c *commitCtx) error) error {
	var err error
	db.submit(func(c *commitCtx) {
		if err = change(c); err != nil {
			return
		}
		c.adminChanged = true
		if moveEpoch {
			c.epoch++
		}
		db.record("system", action, detail, "ok")
	})
	return err
}

// Rules returns a snapshot of the policy rules.
func (db *Database) Rules() []policy.Rule {
	g := db.gen()
	out := make([]policy.Rule, 0, g.policy.Len())
	for _, r := range g.policy.Rules() {
		out = append(out, *r)
	}
	return out
}

// Users returns all user names.
func (db *Database) Users() []string {
	return db.gen().subjects.Users()
}

// Roles returns all role names.
func (db *Database) Roles() []string {
	return db.gen().subjects.Roles()
}

// Hierarchy returns an independent copy of the subject hierarchy.
func (db *Database) Hierarchy() *subject.Hierarchy {
	return db.gen().subjects.Clone()
}

// AnalyzePolicy runs the static policy analyzer (internal/policyanalysis)
// over the current policy and subject hierarchy. The analysis needs no
// document, so it is safe at any point of the administration workflow.
func (db *Database) AnalyzePolicy() *policyanalysis.Report {
	g := db.gen()
	return policyanalysis.Analyze(g.subjects, g.policy)
}

// PlanRepairs runs the analyzer with repair synthesis over the current
// policy. The live document drives the repair engine's differential
// oracle, so candidate repairs come back classified semantics-preserving
// or semantics-changing against the current permission matrix.
func (db *Database) PlanRepairs() *policyanalysis.RepairReport {
	return db.PlanRepairsCtx(context.Background())
}

// PlanRepairsCtx is PlanRepairs with request-scoped tracing.
func (db *Database) PlanRepairsCtx(ctx context.Context) *policyanalysis.RepairReport {
	g := db.gen()
	rules := make([]policy.Rule, 0, g.policy.Len())
	for _, r := range g.policy.Rules() {
		rules = append(rules, *r)
	}
	return policyanalysis.PlanRepairsCtx(ctx, g.doc, g.subjects, rules)
}

// SourceXML serializes the raw source document — administrator use only;
// regular access goes through Session views.
func (db *Database) SourceXML() string {
	return db.gen().doc.XML()
}

// SourceSketch renders the raw source document's structure sketch (node
// identifiers and labels) — administrator use only, like SourceXML.
func (db *Database) SourceSketch() string {
	return db.gen().doc.Sketch()
}

// Stats summarizes the database state.
type Stats struct {
	Nodes      int
	Rules      int
	Users      int
	Roles      int
	DocVersion uint64
	// Generation is the sequence number of the published COW generation;
	// it advances once per group-commit round (which may coalesce several
	// writes), while DocVersion advances per node mutation.
	Generation  uint64
	PolicyEpoch uint64
}

// Stats returns current counters.
func (db *Database) Stats() Stats {
	g := db.gen()
	return Stats{
		Nodes:       g.doc.Len(),
		Rules:       g.policy.Len(),
		Users:       len(g.subjects.Users()),
		Roles:       len(g.subjects.Roles()),
		DocVersion:  g.ver(),
		Generation:  g.seq,
		PolicyEpoch: g.epoch,
	}
}

// --- audit --------------------------------------------------------------------

// AuditEntry is one recorded action.
type AuditEntry struct {
	Seq     uint64
	User    string
	Action  string // "query", "update", "grant", ...
	Detail  string
	Outcome string
	// ReqID correlates the entry with an HTTP request (X-Request-Id) and
	// its access-log line; "" outside a request context.
	ReqID string
	// Duration is the wall time of the operation; 0 for administrative
	// actions that are not timed.
	Duration time.Duration
}

// record appends an audit entry without request correlation.
func (db *Database) record(user, action, detail, outcome string) {
	db.recordFull(user, action, detail, outcome, "", 0)
}

// recordFull appends one fully annotated audit entry. It takes the audit
// lock itself, so it is safe from both the lock-free read paths and the
// commit leader. Auditing is disabled with limit 0 — checked before the
// lock, so a bench-configured silent database pays nothing here.
func (db *Database) recordFull(user, action, detail, outcome, reqID string, d time.Duration) {
	if db.auditLimit == 0 {
		return
	}
	db.auditMu.Lock()
	defer db.auditMu.Unlock()
	db.auditSeq++
	db.audit = append(db.audit, AuditEntry{
		Seq: db.auditSeq, User: user, Action: action, Detail: detail, Outcome: outcome,
		ReqID: reqID, Duration: d,
	})
	if len(db.audit) > db.auditLimit {
		db.audit = db.audit[len(db.audit)-db.auditLimit:]
	}
	auditDepth.Set(int64(len(db.audit)))
}

// Audit returns a snapshot of the audit log, oldest first.
func (db *Database) Audit() []AuditEntry {
	db.auditMu.Lock()
	defer db.auditMu.Unlock()
	return append([]AuditEntry(nil), db.audit...)
}

// --- sessions -----------------------------------------------------------------

// permsEntry is one published cell of a session's permission cache: the
// user's axiom-14 permissions current at document version ver. It is all
// the session keeps: every view consumer reads the pinned source through
// qfilter.ForPerms over these permissions. An entry is immutable after
// publication — neither pm's base slice nor its overlay is mutated in place
// — so concurrent requests on one shared session can read the same entry
// while another request swaps in a newer one.
//
// ne is the user's node evaluator for the entry's (gen, epoch), compiled
// at the first patch and handed on to each entry patched from this one;
// nil until then.
type permsEntry struct {
	pm    *policy.Perms
	ne    *policy.NodeEvaluator
	ver   uint64
	epoch uint64
	gen   uint64 // docGen of the generation the entry was built against
}

// Session is an authenticated connection for one user.
type Session struct {
	db   *Database
	user string

	// mu guards entry; currentPerms is the only function that touches it.
	mu    sync.Mutex
	entry *permsEntry
}

// Session returns the session of a declared user; roles cannot log in.
// There is one session per user: every call for the same user returns the
// same Session, so the server's requests, WarmSessions, ExplainAs, the
// shell and journal replay all share one permission cache per user.
// Sessions are safe for concurrent use.
func (db *Database) Session(user string) (*Session, error) {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	if s, ok := db.sessions[user]; ok {
		return s, nil
	}
	kind, ok := db.gen().subjects.KindOf(user)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	if kind != subject.User {
		return nil, fmt.Errorf("%w: %q is a role", ErrNotUser, user)
	}
	s := &Session{db: db, user: user}
	db.sessions[user] = s
	return s, nil
}

// User returns the session's login.
func (s *Session) User() string { return s.user }

// vars returns the XPath bindings of the session ($USER, §4.3).
func (s *Session) vars() xpath.Vars {
	return xpath.Vars{"USER": xpath.String(s.user)}
}

// currentPerms returns the cache entry holding the session's axiom-14
// permissions for the pinned generation g, the only state any view
// consumer needs. It serves the cached entry when the document and the
// policy are unchanged since it was built. A document change whose deltas
// are still in the generation's log is absorbed by patching a copy of the
// cached permissions (axiom 14 re-run over the touched subtrees only);
// policy changes, document replacements and log gaps re-derive the
// permissions. The whole decision runs under s.mu, the only place that
// reads or writes s.entry.
func (s *Session) currentPerms(ctx context.Context, g *generation) (*permsEntry, error) {
	ver, epoch, gen := g.ver(), g.epoch, g.docGen
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry
	if e != nil && e.gen == gen && e.ver == ver && e.epoch == epoch {
		cacheHits.Inc()
		obs.AnnotateCtx(ctx, "view_source", "cache_hit")
		return e, nil
	}
	if e != nil && e.gen == gen && e.epoch == epoch && e.ver < ver {
		ne := e.ne
		if ne == nil {
			ne, _ = g.policy.NodeEvaluator(g.subjects, s.user)
		}
		pm, err := patchPerms(ctx, ne, e.pm, e.ver, g.doc, g.log)
		if pm != nil {
			// Counted as xmlsec_view_incremental_applied_total by the
			// patch — neither a plain hit nor a deriving miss.
			s.entry = &permsEntry{pm: pm, ne: ne, ver: ver, epoch: epoch, gen: gen}
			obs.AnnotateCtx(ctx, "view_source", "incremental")
			return s.entry, nil
		}
		if err != nil {
			// The entry has no usable continuation: drop it so the rebuild
			// below starts cold instead of retrying a failing patch on
			// every request.
			s.entry, e = nil, nil
		}
	}
	switch {
	case e == nil:
		cacheMissCold.Inc()
		obs.AnnotateCtx(ctx, "view_source", "materialize_cold")
	case e.gen != gen || e.ver != ver:
		cacheMissDoc.Inc()
		obs.AnnotateCtx(ctx, "view_source", "materialize_doc")
	default:
		cacheMissEpoch.Inc()
		obs.AnnotateCtx(ctx, "view_source", "materialize_epoch")
	}
	pm, err := g.ruleCache().EvaluateSharedCtx(ctx, g.subjects, s.user)
	if err != nil {
		return nil, err
	}
	s.entry = &permsEntry{pm: pm, ver: ver, epoch: epoch, gen: gen}
	return s.entry, nil
}

// patchPerms returns pm, the user's permissions at document version from,
// patched by ne up to doc's version over the touched roots that log holds
// for those versions: a generation's delta log, or a commit round's own
// batches. It returns nil permissions when patching is not possible — ne
// is nil (the policy is not chain-only for the user), the log has a gap,
// or the patch failed, the last with its error — and counts the reason.
// pm is never mutated: ne patches a Clone of it, which shares the base
// and copies only the overlay.
func patchPerms(ctx context.Context, ne *policy.NodeEvaluator, pm *policy.Perms, from uint64, doc *xmltree.Document, log []deltaBatch) (*policy.Perms, error) {
	if ne == nil {
		incFallbackIneligible.Inc()
		obs.AnnotateCtx(ctx, "incremental_fallback", "ineligible")
		return nil, nil
	}
	chain, ok := deltaChain(log, from, doc.Version())
	if !ok {
		incFallbackGap.Inc()
		obs.AnnotateCtx(ctx, "incremental_fallback", "gap")
		return nil, nil
	}
	out, err := ne.PatchCtx(ctx, doc, pm, chain)
	if err != nil {
		incFallbackError.Inc()
		obs.AnnotateCtx(ctx, "incremental_fallback", "error")
		return nil, err
	}
	return out, nil
}

// View returns the user's current view as a document of its own: a fresh
// materialization (axioms 15–17) of the pinned source under the session's
// maintained permissions — the specification every other rendering of the
// view is checked against. It is independent of the database and of every
// other caller, and costs a walk of the document; /view renders the same
// view without building it (WriteViewCtx).
func (s *Session) View() (*view.View, error) {
	return s.ViewCtx(context.Background())
}

// ViewCtx is View with a request context: a failed derivation is audited
// with the context's request ID (successes are not audited).
func (s *Session) ViewCtx(ctx context.Context) (*view.View, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_view", viewStage)
	g := s.db.gen()
	e, err := s.currentPerms(ctx, g)
	if err != nil {
		sessionOp("view", "error")
		s.db.recordCtx(ctx, "view", s.user, "", "error: "+err.Error(), sp.End())
		return nil, err
	}
	v := view.MaterializeCtx(ctx, g.doc, e.pm)
	sp.End()
	sessionOp("view", "ok")
	return v, nil
}

// ViewXML serializes the user's view.
func (s *Session) ViewXML() (string, error) {
	var b strings.Builder
	if err := s.WriteViewCtx(context.Background(), &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// WriteViewCtx writes the user's view, serialized as pretty-printed XML,
// to w in a single w.Write call, so a caller may take the body's length
// from that call. No view document is built: the pinned source is
// serialized through qfilter.ForPerms over the session's maintained
// permissions, which walks only what the user can see (axioms 15–17) and
// writes the bytes Materialize's document would. A failed derivation of
// the permissions returns its error before anything is written.
// Serialization and the write are timed as the view_serialize stage,
// which starts after session_view ends and is not nested in it.
func (s *Session) WriteViewCtx(ctx context.Context, w io.Writer) error {
	vctx, sp := obs.StartSpanCtx(ctx, "session_view", viewStage)
	g := s.db.gen()
	e, err := s.currentPerms(vctx, g)
	if err != nil {
		sessionOp("view", "error")
		s.db.recordCtx(vctx, "view", s.user, "", "error: "+err.Error(), sp.End())
		return err
	}
	sp.End()
	sessionOp("view", "ok")
	_, ser := obs.StartSpanCtx(ctx, "view_serialize", serializeStage)
	defer ser.End()
	return g.doc.Write(w, xmltree.WriteOptions{Indent: "  ", Filter: qfilter.ForPerms(e.pm)})
}

// Result is one node matched by a query, described without exposing
// internal identifiers.
type Result struct {
	Kind  xmltree.Kind
	Label string
	Path  string // view path, e.g. /patients/RESTRICTED/diagnosis
	Value string // XPath string-value
}

// Query evaluates an XPath expression and returns the matching nodes as
// the user's view shows them (§4.4.1). Every query takes the one secured
// read path (see secureRead): it is evaluated on the source under the
// session's maintained permissions, which is answer-equivalent to
// evaluating it on the view (pinned by internal/qfilter's property tests
// and the tier agreement tests), so the route is invisible except in
// latency and the xmlsec_query_tier_total counters.
func (s *Session) Query(path string) ([]Result, error) {
	return s.QueryCtx(context.Background(), path)
}

// QueryCtx is Query with a request context: the request ID (if any) is
// threaded into the audit entry alongside the operation's duration.
func (s *Session) QueryCtx(ctx context.Context, path string) ([]Result, error) {
	out, _, err := s.QueryTierCtx(ctx, path, TierAuto)
	return out, err
}

// QueryTierCtx is QueryCtx also reporting the route that served the
// answer. It evaluates against one pinned generation: no lock is taken and
// concurrent commits cannot tear the snapshot. forced == TierView
// evaluates on a fresh materialization of the view instead, the reference
// the agreement tests compare against; any other value routes normally.
func (s *Session) QueryTierCtx(ctx context.Context, path string, forced Tier) ([]Result, Tier, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_query", queryStage)
	fail := func(tier Tier, err error) ([]Result, Tier, error) {
		sessionOp("query", "error")
		s.db.recordCtx(ctx, "query", s.user, path, "error: "+err.Error(), sp.End())
		return nil, tier, err
	}
	rd, err := s.secureRead(ctx, s.db.gen(), path, forced == TierView)
	if err != nil {
		return fail(rd.tier, err)
	}
	_, xe := obs.StartSpanCtx(ctx, "xpath_eval", xpathStage)
	ns, err := rd.c.SelectFiltered(rd.root, s.vars(), rd.sec)
	xe.AnnotateInt("selected", int64(len(ns)))
	xe.End()
	if err != nil {
		return fail(rd.tier, err)
	}
	out := filteredResults(ns, rd.sec)
	queryTierCounters[rd.tier].Inc()
	sp.Annotate("query_tier", rd.tier.String())
	sessionOp("query", "ok")
	s.db.recordCtx(ctx, "query", s.user, path, fmt.Sprintf("%d nodes", len(out)), sp.End())
	return out, rd.tier, nil
}

// securedRead is one read resolved by secureRead: the compiled expression
// and where to evaluate it.
type securedRead struct {
	tier Tier
	c    *xpath.Compiled
	// root is the pinned generation's source root, or the root of a
	// fresh view for TierView.
	root *xmltree.Node
	// sec filters the source; nil for the view.
	sec *xpath.Security
}

// secureRead resolves one read of path on the pinned generation g. This is
// the paper's §5 filtered-query design fed by the session's maintained
// state: the read evaluates on the source under qfilter.ForPerms over the
// session's maintained permissions (TierQfilter) — a cache hit, a delta
// patch, or one derivation that is then cached. With onView it evaluates
// on a fresh materialization of the view from the same permissions
// (TierView), the specification. The returned read is non-nil even on
// error, carrying the tier to report.
func (s *Session) secureRead(ctx context.Context, g *generation, path string, onView bool) (*securedRead, error) {
	rd := &securedRead{tier: TierQfilter, root: g.doc.Root()}
	c, err := xpath.Compile(path)
	if err != nil {
		return rd, err
	}
	rd.c = c
	e, err := s.currentPerms(ctx, g)
	if err != nil {
		return rd, err
	}
	if onView {
		rd.tier, rd.root = TierView, view.MaterializeCtx(ctx, g.doc, e.pm).Doc.Root()
		return rd, nil
	}
	rd.sec = qfilter.ForPerms(e.pm)
	return rd, nil
}

// filteredResults renders source nodes exactly as the user's materialized
// view would show them: effective labels, filtered string-values, view
// paths. A nil sec renders stored labels: nodes of the view itself.
func filteredResults(ns xpath.NodeSet, sec *xpath.Security) []Result {
	out := make([]Result, len(ns))
	for i, n := range ns {
		out[i] = Result{
			Kind:  n.Kind(),
			Label: sec.EffectiveLabel(n),
			Path:  sec.Path(n),
			Value: sec.StringValue(n),
		}
	}
	return out
}

// QueryValue evaluates an XPath expression that may yield an atomic value
// (count(), boolean tests, string()...) against the user's view, through
// the same secured read path as Query. A non-empty node-set value is
// copied through the permission filter (xmltree.CopyFiltered) before it is
// handed out: raw source nodes would leak hidden labels, and the copies
// carry exactly what the view shows of the selected nodes.
func (s *Session) QueryValue(path string) (xpath.Value, error) {
	return s.QueryValueCtx(context.Background(), path)
}

// QueryValueCtx is QueryValue with a request context: the request ID (if
// any) is threaded into the audit entry alongside the operation's
// duration.
func (s *Session) QueryValueCtx(ctx context.Context, path string) (xpath.Value, error) {
	val, _, err := s.QueryValueTierCtx(ctx, path, TierAuto)
	return val, err
}

// QueryValueTierCtx is QueryValueCtx also reporting the route that served
// the value. forced is as for QueryTierCtx.
func (s *Session) QueryValueTierCtx(ctx context.Context, path string, forced Tier) (xpath.Value, Tier, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_query_value", valueStage)
	fail := func(tier Tier, err error) (xpath.Value, Tier, error) {
		sessionOp("query_value", "error")
		s.db.recordCtx(ctx, "query_value", s.user, path, "error: "+err.Error(), sp.End())
		return nil, tier, err
	}
	rd, err := s.secureRead(ctx, s.db.gen(), path, forced == TierView)
	if err != nil {
		return fail(rd.tier, err)
	}
	_, xe := obs.StartSpanCtx(ctx, "xpath_eval", xpathStage)
	val, err := rd.c.EvalFiltered(rd.root, s.vars(), rd.sec)
	if ns, ok := val.(xpath.NodeSet); ok && len(ns) > 0 && rd.sec != nil {
		nodeSetValueFallbacks.Inc()
		val = xpath.NodeSet(xmltree.CopyFiltered(ns, rd.sec))
	}
	xe.End()
	if err != nil {
		return fail(rd.tier, err)
	}
	queryTierCounters[rd.tier].Inc()
	sp.Annotate("query_tier", rd.tier.String())
	sessionOp("query_value", "ok")
	s.db.recordCtx(ctx, "query_value", s.user, path, val.TypeName(), sp.End())
	return val, rd.tier, nil
}

// recordCtx is record with the context's request ID and a duration.
func (db *Database) recordCtx(ctx context.Context, action, user, detail, outcome string, d time.Duration) {
	db.recordFull(user, action, detail, outcome, obs.RequestID(ctx), d)
}

// Update executes one XUpdate operation with the paper's write access
// controls (axioms 18–25). It returns the per-node result. The operation
// runs in its wire form (xupdate.Canonical), the form the journal replays,
// so an update value loses surrounding whitespace, and content loses
// comments and merges adjacent text, as in an Apply.
func (s *Session) Update(op *xupdate.Op) (*xupdate.Result, error) {
	return s.UpdateCtx(context.Background(), op)
}

// UpdateCtx is Update with a request context (request ID into the audit
// entry, duration into the telemetry registry).
func (s *Session) UpdateCtx(ctx context.Context, op *xupdate.Op) (*xupdate.Result, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	op, err := xupdate.Canonical(op)
	if err != nil {
		return nil, err
	}
	results, err := s.write(ctx, []*xupdate.Op{op}, true)
	if len(results) == 0 {
		return nil, err
	}
	return results[0], err
}

// Apply parses an <xupdate:modifications> document and executes its
// operations in order, returning one result per operation (a zero result
// for xupdate:variable bindings, which are threaded through the sequence
// and evaluated under the user's permission filter). Execution stops at the first
// hard error; privilege refusals are not errors (they appear as skipped
// nodes in the results).
func (s *Session) Apply(modifications string) ([]*xupdate.Result, error) {
	return s.ApplyCtx(context.Background(), modifications)
}

// ApplyCtx is Apply with a request context.
func (s *Session) ApplyCtx(ctx context.Context, modifications string) ([]*xupdate.Result, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_apply", applyStage)
	defer sp.End()
	ops, err := xupdate.ParseModificationsString(modifications)
	var results []*xupdate.Result
	if err == nil {
		results, err = s.write(ctx, ops, true)
	}
	if err != nil {
		sessionOp("apply", "error")
		return results, err
	}
	sessionOp("apply", "ok")
	return results, nil
}

// write runs ops as one commit request: on the commit leader the ops run
// back to back against the round's state (runInRound), so no other write
// lands between two of them. Execution stops at the first hard error;
// refusals are not errors. When journaled is set and any op applied, the
// leader journals the ops that ran before the round publishes, so the
// journal is in commit order and a failed request logs exactly the
// published prefix. One session_update span covers the request's queue
// wait, execution and journal append.
func (s *Session) write(ctx context.Context, ops []*xupdate.Op, journaled bool) ([]*xupdate.Result, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_update", updateStage)
	// Warm the permissions on the writer's goroutine, so the serialized
	// round usually finds them cached; an error resurfaces in the round.
	_, _ = s.currentPerms(ctx, s.db.gen())
	results := make([]*xupdate.Result, 0, len(ops))
	var err error
	s.db.submit(func(c *commitCtx) {
		env := s.vars()
		var rp reqPerms
		applied := false
		for _, op := range ops {
			var res *xupdate.Result
			if res, err = s.runInRound(ctx, c, &rp, op, env); err != nil {
				break
			}
			applied = applied || res.Applied > 0
			results = append(results, res)
		}
		if applied && journaled && s.db.journal != nil {
			mods, jerr := xupdate.ModificationsString(ops[:len(results)])
			if jerr == nil {
				_, jerr = s.db.journal.AppendCtx(ctx, s.user, mods)
			}
			if jerr != nil && err == nil {
				err = fmt.Errorf("core: modifications applied but journaling failed: %w", jerr)
			}
		}
		d := sp.End()
		for i, res := range results {
			if ops[i].Kind != xupdate.Variable {
				sessionOp("update", "ok")
				s.db.recordCtx(ctx, "update", s.user, opDetail(ops[i]),
					fmt.Sprintf("selected=%d applied=%d skipped=%d", res.Selected, res.Applied, len(res.Skipped)), d)
			}
		}
		if err != nil && len(results) < len(ops) {
			sessionOp("update", "error")
			s.db.recordCtx(ctx, "update", s.user, opDetail(ops[len(results)]), "error: "+err.Error(), d)
		}
	})
	return results, err
}

// runInRound runs one op of a commit request in the round c under the
// user's permissions for the round's current document (roundPerms). A
// variable binding adds its value to env; a node-set value is bound on
// the round's copy of the document, taken now if need be, so later ops
// read through it what the ops before them changed, whatever shares the
// round. Any other op runs through access.ExecuteFilteredCtx, which
// selects on the frozen base until the round has a copy and takes it
// just before op's first change, so a refused or no-op write clones
// nothing; a change is recorded as one delta batch of the round.
func (s *Session) runInRound(ctx context.Context, c *commitCtx, rp *reqPerms, op *xupdate.Op, env xpath.Vars) (*xupdate.Result, error) {
	pm, err := s.roundPerms(ctx, c, rp)
	if err != nil {
		return nil, err
	}
	if op.Kind == xupdate.Variable {
		if err := op.Validate(); err != nil {
			return nil, err
		}
		// Every later use reads a node-set under the same user's filter.
		val, err := op.BindVariable(c.curDoc().Root(), env, qfilter.ForPerms(pm))
		if err != nil {
			return nil, err
		}
		if ns, ok := val.(xpath.NodeSet); ok && len(ns) > 0 && c.doc == nil {
			onCopy, doc := make(xpath.NodeSet, len(ns)), c.mutableDoc()
			for i, n := range ns {
				onCopy[i] = doc.NodeByID(n.IDString())
			}
			val = onCopy
		}
		env[op.VarName()] = val
		env["USER"] = xpath.String(s.user) // a binding never shadows $USER (§4.3)
		return &xupdate.Result{}, nil
	}
	fromVer := c.curDoc().Version()
	var res *xupdate.Result
	if c.doc != nil {
		res, err = access.ExecuteFilteredCtx(ctx, c.doc, nil, pm, s.user, op, env)
	} else {
		res, err = access.ExecuteFilteredCtx(ctx, c.base.doc, c.mutableDoc, pm, s.user, op, env)
	}
	// A failed executor may have partially mutated the round's document. It
	// records no batch, so if the round publishes, the version gap makes
	// later patches fall back to a fresh derivation (deltaChain reports it).
	if err == nil && c.curDoc().Version() != fromVer {
		c.batches = append(c.batches, deltaBatch{fromVer: fromVer, toVer: c.curDoc().Version(), roots: res.Touched})
	}
	return res, err
}

// reqPerms carries a write request's permissions pm, for document version
// ver, from op to op, with the NodeEvaluator ne that patches them.
type reqPerms struct {
	pm  *policy.Perms
	ne  *policy.NodeEvaluator
	ver uint64
}

// roundPerms returns the user's axiom-14 permissions over the round's
// current document and keeps them in rp: an op after one that changed
// nothing reuses them. Until a request in the round touches the policy or
// the hierarchy, or replaces the document, they are the session's
// permissions for the base generation (a cache hit when the pin taken
// before submit is current, a delta patch when another round published
// since), patched by the user's NodeEvaluator over the round's batches
// since rp's version. They are derived afresh when the round changed
// admin state or replaced the document, and when the session cannot
// produce or patch them (the policy is not chain-only for the user, or a
// failed executor left a version gap).
func (s *Session) roundPerms(ctx context.Context, c *commitCtx, rp *reqPerms) (*policy.Perms, error) {
	doc := c.curDoc()
	if rp.pm != nil && rp.ver == doc.Version() {
		return rp.pm, nil
	}
	// The round still has the base's policy, hierarchy and document lineage.
	baseState := !c.docReset && c.policy == nil && c.subjects == nil
	if baseState && rp.pm == nil {
		if e, err := s.currentPerms(ctx, c.base); err == nil {
			*rp = reqPerms{pm: e.pm, ne: e.ne, ver: e.ver}
			if e.ver == doc.Version() {
				securedViewSession.Inc()
				obs.AnnotateCtx(ctx, "view_source", "session")
				return e.pm, nil
			}
		}
	}
	if baseState && rp.pm != nil {
		if rp.ne == nil {
			rp.ne, _ = c.base.policy.NodeEvaluator(c.base.subjects, s.user)
		}
		if pm, _ := patchPerms(ctx, rp.ne, rp.pm, rp.ver, doc, c.batches); pm != nil {
			rp.pm, rp.ver = pm, doc.Version()
			securedViewRebuild.Inc()
			obs.AnnotateCtx(ctx, "view_source", "round_patch")
			return pm, nil
		}
	}
	securedViewRebuild.Inc()
	obs.AnnotateCtx(ctx, "view_source", "rebuild")
	pm, err := c.curPolicy().EvaluateCtx(ctx, doc, c.curSubjects(), s.user)
	if err == nil {
		rp.pm, rp.ver = pm, doc.Version()
	}
	return pm, err
}

func opDetail(op *xupdate.Op) string {
	switch op.Kind {
	case xupdate.Rename, xupdate.Update:
		return fmt.Sprintf("%s select=%s vnew=%s", op.Kind, op.Select, op.NewValue)
	default:
		return fmt.Sprintf("%s select=%s", op.Kind, op.Select)
	}
}

// Recover rebuilds state from a snapshot plus its journal suffix: the
// snapshot is restored, then every journal entry is re-executed, in
// journal order, as one write request of its user through the same
// secured path and the user's session (Session.write, without
// re-journaling). It returns the database and the last replayed sequence
// number (pass it to WithJournal to continue the same log). A failing
// entry stops replay with an error naming its sequence number. A torn
// final journal entry (crash during append) is tolerated: the intact
// prefix is applied.
func Recover(snapshot, journalLog io.Reader, opts ...Option) (*Database, uint64, error) {
	db, err := Open(snapshot, opts...)
	if err != nil {
		return nil, 0, err
	}
	entries, err := journal.Read(journalLog)
	if err != nil && !errors.Is(err, journal.ErrCorrupt) {
		return nil, 0, err
	}
	torn := err != nil
	var lastSeq uint64
	for _, e := range entries {
		ops, err := xupdate.ParseModificationsString(e.Modifications)
		var s *Session
		if err == nil {
			s, err = db.Session(e.User)
		}
		if err == nil {
			_, err = s.write(context.Background(), ops, false)
		}
		if err != nil {
			return nil, lastSeq, fmt.Errorf("core: replaying journal entry %d (%s): %w", e.Seq, e.User, err)
		}
		lastSeq = e.Seq
	}
	detail := fmt.Sprintf("replayed %d entries", len(entries))
	if torn {
		detail += " (torn tail discarded)"
	}
	db.record("system", "recover", detail, "ok")
	return db, lastSeq, nil
}

// AttachJournal attaches (or replaces) the operation log on an existing
// database — the recovery sequence is: Recover(snapshot, journal), then
// AttachJournal(appendHandle, lastSeq) to continue the same log. Like the
// journal Option, it must run before the database serves concurrent
// requests: the journal handle is read without a lock on the update path.
func (db *Database) AttachJournal(w io.Writer, seqStart uint64) {
	db.journal = journal.NewWriter(w, seqStart)
}

// Transform runs an XSLT stylesheet as the session user through the §5
// security-processor path: the stylesheet executes against the source
// document but observes only the user's authorized view (qfilter.ForPerms
// over the session's maintained permissions).
func (s *Session) Transform(stylesheet string) (string, error) {
	return s.TransformCtx(context.Background(), stylesheet)
}

// TransformCtx is Transform with a request context.
func (s *Session) TransformCtx(ctx context.Context, stylesheet string) (string, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_transform", transformStage)
	fail := func(err error) (string, error) {
		sessionOp("transform", "error")
		s.db.recordCtx(ctx, "transform", s.user, "stylesheet", "error: "+err.Error(), sp.End())
		return "", err
	}
	sheet, err := xslt.ParseStylesheet(stylesheet)
	if err != nil {
		return fail(err)
	}
	g := s.db.gen()
	e, err := s.currentPerms(ctx, g)
	if err != nil {
		return fail(err)
	}
	out, err := sheet.TransformString(g.doc, s.vars(), qfilter.ForPerms(e.pm))
	if err != nil {
		return fail(err)
	}
	sessionOp("transform", "ok")
	s.db.recordCtx(ctx, "transform", s.user, "stylesheet", fmt.Sprintf("%d bytes", len(out)), sp.End())
	return out, nil
}
