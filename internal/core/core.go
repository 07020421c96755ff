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
	"securexml/internal/rewrite"
	"securexml/internal/storage"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xslt"
	"securexml/internal/xupdate"
)

// Telemetry: session-level stages plus the per-session view cache (the
// registry's hit rate is the leverage of caching materialized views across
// queries within one (document version, policy epoch) window).
var (
	queryStage     = obs.Stage("session_query")
	valueStage     = obs.Stage("session_query_value")
	viewStage      = obs.Stage("session_view")
	updateStage    = obs.Stage("session_update")
	applyStage     = obs.Stage("session_apply")
	transformStage = obs.Stage("session_transform")
	xpathStage     = obs.Stage("xpath_eval")

	cacheHits      = obs.Default().Counter("xmlsec_view_cache_hits_total")
	cacheMissCold  = obs.Default().Counter("xmlsec_view_cache_misses_total", "reason", "cold")
	cacheMissDoc   = obs.Default().Counter("xmlsec_view_cache_misses_total", "reason", "doc_version")
	cacheMissEpoch = obs.Default().Counter("xmlsec_view_cache_misses_total", "reason", "policy_epoch")

	// Incremental maintenance fallbacks, by reason: the policy is not
	// chain-only for the user (ineligible), the delta log no longer covers
	// the cached version (gap), or patching failed mid-batch (error).
	// Successful patches are counted by the view package
	// (xmlsec_view_incremental_applied_total).
	incFallbackIneligible = obs.Default().Counter("xmlsec_view_incremental_fallback_total", "reason", "ineligible")
	incFallbackGap        = obs.Default().Counter("xmlsec_view_incremental_fallback_total", "reason", "gap")
	incFallbackError      = obs.Default().Counter("xmlsec_view_incremental_fallback_total", "reason", "error")

	// Where each secured write's permissions came from: the writing
	// session's maintained permissions of the round's base generation, or
	// a fresh derivation of the view from the round's scratch state (see
	// executeInRound).
	securedViewSession = obs.Default().Counter("xmlsec_secured_view_total", "source", "session")
	securedViewRebuild = obs.Default().Counter("xmlsec_secured_view_total", "source", "rebuild")

	// auditDepth tracks the audit ring's current occupancy, so operators
	// can see eviction pressure (the ring drops oldest entries at the
	// configured limit) before entries are silently lost.
	auditDepth = obs.Default().Gauge("xmlsec_audit_ring_depth")
)

// Tier identifies which route of the secured read path served a query
// (§4.4.1 enforcement strategies): a static plan of the rewriter's
// classifier (TierRewrite), the source under the qfilter permission
// filter, or the materialized view.
type Tier int

// The ladder tiers, cheapest first.
const (
	TierRewrite Tier = iota
	TierQfilter
	TierView
	numTiers
)

// TierAuto is the sentinel for normal routing (no pinning): static plans
// on TierRewrite, other reads on TierQfilter, non-empty node-set values
// on TierView. Only TierAuto consults the static classifier, so
// TierRewrite cannot be pinned.
const TierAuto Tier = -1

// ParseTier parses a tier name as accepted by the server's -tier flag and
// the shell's tier command: qfilter, view, or auto.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "qfilter":
		return TierQfilter, nil
	case "view":
		return TierView, nil
	case "auto", "":
		return TierAuto, nil
	default:
		return TierAuto, fmt.Errorf("core: unknown tier %q (want qfilter|view|auto)", s)
	}
}

// String names the tier.
func (t Tier) String() string { return t.MetricLabel() }

// MetricLabel returns the tier's telemetry label; every branch is a
// literal so labels stay compile-time bounded (xmlsec-vet obslabel).
func (t Tier) MetricLabel() string {
	switch t {
	case TierRewrite:
		return "rewrite"
	case TierQfilter:
		return "qfilter"
	case TierView:
		return "view"
	default:
		return "unknown"
	}
}

// Telemetry: queries served per ladder tier, resolved once.
var queryTierCounters = func() (c [numTiers]*obs.Counter) {
	for t := Tier(0); t < numTiers; t++ {
		c[t] = obs.Default().Counter("xmlsec_query_tier_total", "tier", t.MetricLabel())
	}
	return
}()

// nodeSetValueFallbacks counts value queries re-evaluated on the view
// because they produced a non-empty node-set. The metric keeps the
// rewrite-fallback name its dashboards and benchmark already read.
var nodeSetValueFallbacks = obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", "nodeset_value")

// countTier records one query served by tier.
func countTier(t Tier) {
	if t >= 0 && t < numTiers {
		queryTierCounters[t].Inc()
	}
}

// sessionOp counts one session operation by name and outcome (ok | error).
func sessionOp(op, outcome string) {
	obs.Default().Counter("xmlsec_session_ops_total", "op", op, "outcome", outcome).Inc()
}

// Errors returned by core operations.
var (
	ErrUnknownUser = errors.New("core: unknown user")
	ErrNotUser     = errors.New("core: sessions are for users, not roles")
	// ErrTierUnavailable: a query was pinned to one ladder tier (A/B
	// debugging via the server -tier flag or the shell tier command) and
	// that tier cannot serve it — TierRewrite, which only static plans of
	// the unpinned path reach, or a pinned qfilter value query that
	// produced a node-set (which only the view tier may hand out without
	// leaking).
	ErrTierUnavailable = errors.New("core: forced tier cannot serve this query")
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

// WithJournal attaches an operation log: every successfully executed
// modification is appended as an <xupdate:modifications> document framed
// with its user. seqStart continues an existing journal (0 starts fresh);
// after Recover, pass the returned last sequence number.
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

	// sessions holds the per-user shared sessions handed out by
	// SharedSession, so server requests and warm-up hit one view cache per
	// user instead of re-materializing per connection.
	sessMu   sync.Mutex
	sessions map[string]*Session
}

// New creates an empty database: no document, no subjects, no rules.
func New(opts ...Option) *Database {
	db := &Database{
		scheme:     labeling.NewFracPath(),
		auditLimit: 4096,
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
// operation it rides the group-commit queue: a successful change clones
// the hierarchy, bumps the policy epoch and publishes a new generation
// (sharing the document pointer — admin-only rounds copy no tree).
func (db *Database) AddRole(name string, parents ...string) error {
	var err error
	db.submit(func(c *commitCtx) {
		if err = c.mutableSubjects().AddRole(name, parents...); err != nil {
			return
		}
		c.adminChanged = true
		c.epoch++
		db.record("system", "add-role", name, "ok")
	})
	return err
}

// AddUser declares a user belonging to the given roles.
func (db *Database) AddUser(name string, roles ...string) error {
	var err error
	db.submit(func(c *commitCtx) {
		if err = c.mutableSubjects().AddUser(name, roles...); err != nil {
			return
		}
		c.adminChanged = true
		c.epoch++
		db.record("system", "add-user", name, "ok")
	})
	return err
}

// Grant appends an accept rule (latest priority, §4.3 discipline).
func (db *Database) Grant(priv policy.Privilege, path, subj string) error {
	var err error
	db.submit(func(c *commitCtx) {
		if err = c.mutablePolicy().Grant(c.curSubjects(), priv, path, subj); err != nil {
			return
		}
		c.adminChanged = true
		c.epoch++
		db.record("system", "grant", fmt.Sprintf("%s on %s to %s", priv, path, subj), "ok")
	})
	return err
}

// Revoke appends a deny rule (latest priority).
func (db *Database) Revoke(priv policy.Privilege, path, subj string) error {
	var err error
	db.submit(func(c *commitCtx) {
		if err = c.mutablePolicy().Revoke(c.curSubjects(), priv, path, subj); err != nil {
			return
		}
		c.adminChanged = true
		c.epoch++
		db.record("system", "revoke", fmt.Sprintf("%s on %s from %s", priv, path, subj), "ok")
	})
	return err
}

// AddRule inserts a rule with an explicit priority.
func (db *Database) AddRule(r policy.Rule) error {
	var err error
	db.submit(func(c *commitCtx) {
		if err = c.mutablePolicy().Add(c.curSubjects(), r); err != nil {
			return
		}
		c.adminChanged = true
		c.epoch++
		db.record("system", "add-rule", r.String(), "ok")
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

// record appends an audit entry without request correlation. It takes the
// audit lock itself, so it is safe from both the lock-free read paths and
// the commit leader. Auditing is disabled with limit 0 — checked before
// the lock, so a bench-configured silent database pays nothing here.
func (db *Database) record(user, action, detail, outcome string) {
	if db.auditLimit == 0 {
		return
	}
	db.auditMu.Lock()
	defer db.auditMu.Unlock()
	db.recordFull(user, action, detail, outcome, "", 0)
}

// recordFull appends one fully annotated audit entry. Callers hold
// db.auditMu.
func (db *Database) recordFull(user, action, detail, outcome, reqID string, d time.Duration) {
	if db.auditLimit == 0 {
		return
	}
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

// viewEntry is one published cell of a session's view cache: the axiom-14
// permissions current at document version ver, and the materialized (or
// incrementally patched) view, which may lag behind at version
// v.SourceVersion <= ver. Reads through the permission filter advance only
// the permissions; the view catches up when something needs the view
// document (see currentViewPerms). An entry is immutable after publication
// — v.Doc is frozen and neither pm's base map nor its overlay is mutated
// in place — so concurrent requests on one shared session can read the
// same entry while another request swaps in a newer one.
type viewEntry struct {
	v     *view.View
	pm    *policy.Perms
	ver   uint64
	epoch uint64
	gen   uint64 // docGen of the generation the entry was built against
}

// Session is an authenticated connection for one user.
type Session struct {
	db   *Database
	user string

	mu    sync.Mutex
	entry *viewEntry
	// maint is the compiled incremental maintainer for (policy epoch
	// maintEpoch); nil with maintReady=true means the policy is not
	// chain-only for this user and every doc change must re-materialize.
	maint      *view.Maintainer
	maintEpoch uint64
	maintReady bool
}

// Session opens a session for a declared user. Roles cannot log in.
func (db *Database) Session(user string) (*Session, error) {
	kind, ok := db.gen().subjects.KindOf(user)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	if kind != subject.User {
		return nil, fmt.Errorf("%w: %q is a role", ErrNotUser, user)
	}
	return &Session{db: db, user: user}, nil
}

// SharedSession returns the database's singleton session for user,
// creating it on first use. Unlike Session, repeated calls for the same
// user share one view cache, so a warmed view keeps serving every later
// request for that user (the server's request path and WarmSessions both
// go through here). Sessions are already safe for concurrent use.
func (db *Database) SharedSession(user string) (*Session, error) {
	db.sessMu.Lock()
	if s, ok := db.sessions[user]; ok {
		db.sessMu.Unlock()
		return s, nil
	}
	db.sessMu.Unlock()
	// Validate outside sessMu: keeping user validation (a generation
	// read) out of the lock's scope keeps sessMu a pure map guard.
	s, err := db.Session(user)
	if err != nil {
		return nil, err
	}
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	if prior, ok := db.sessions[user]; ok {
		return prior, nil
	}
	if db.sessions == nil {
		db.sessions = make(map[string]*Session)
	}
	db.sessions[user] = s
	return s, nil
}

// User returns the session's login.
func (s *Session) User() string { return s.user }

// vars returns the XPath bindings of the session ($USER, §4.3).
func (s *Session) vars() xpath.Vars {
	return xpath.Vars{"USER": xpath.String(s.user)}
}

// currentView returns the session's view of the pinned generation g (see
// currentViewPerms). The returned view is immutable (frozen) and remains
// valid after newer generations are published — callers need no lock.
func (s *Session) currentView(ctx context.Context, g *generation) (*view.View, error) {
	v, _, err := s.currentViewPerms(ctx, g)
	return v, err
}

// currentPerms returns the session's axiom-14 permissions for the pinned
// generation g, the only state a read through the permission filter
// needs. It advances the cached entry's permissions without touching its
// view (see entryFor).
func (s *Session) currentPerms(ctx context.Context, g *generation) (*policy.Perms, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.entryFor(ctx, g)
	if err != nil {
		return nil, err
	}
	return e.pm, nil
}

// currentViewPerms returns the session's view of g and the permissions it
// was derived from (a write with value-of content expands it on the view;
// the Explain layer re-reads the same cell the production path served).
// It first brings the permissions to g (entryFor), then catches the view
// up if it lags: the view half of incremental maintenance over the delta
// chain from the view's version, against the current permissions. When
// the log no longer covers the view's version, or the catch-up fails, the
// view is re-materialized from the current permissions — no policy
// evaluation.
func (s *Session) currentViewPerms(ctx context.Context, g *generation) (*view.View, *policy.Perms, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.entryFor(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	if e.v.SourceVersion == e.ver {
		return e.v, e.pm, nil
	}
	v := s.catchUpView(ctx, g, e)
	s.entry = &viewEntry{v: v, pm: e.pm, ver: e.ver, epoch: e.epoch, gen: e.gen}
	return v, e.pm, nil
}

// entryFor returns the session's cache entry with permissions current for
// g, rebuilding only when the document or the policy changed since the
// cached entry. A document change whose deltas are still in the
// generation's log is absorbed by patching a copy of the cached
// permissions (axiom 14 re-run over the touched subtrees only); the view
// is left behind for currentViewPerms to catch up. Policy changes and
// document replacements re-derive the permissions and re-materialize the
// view. Callers hold s.mu.
func (s *Session) entryFor(ctx context.Context, g *generation) (*viewEntry, error) {
	ver, epoch, gen := g.ver(), g.epoch, g.docGen
	e := s.entry
	if e != nil && e.gen == gen && e.ver == ver && e.epoch == epoch {
		cacheHits.Inc()
		obs.AnnotateCtx(ctx, "view_source", "cache_hit")
		return e, nil
	}
	if e != nil && e.gen == gen && e.epoch == epoch && e.ver < ver {
		if ne := s.patchPerms(ctx, g, e); ne != nil {
			// Counted as xmlsec_view_incremental_applied_total by the view
			// package — neither a plain hit nor a materializing miss.
			s.entry = ne
			obs.AnnotateCtx(ctx, "view_source", "incremental")
			return ne, nil
		}
		// A hard patch error poisoned the entry (patchPerms set
		// s.entry = nil) so the rebuild below starts cold.
		e = s.entry
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
	v := view.MaterializeCtx(ctx, g.doc, pm)
	v.Doc.Freeze()
	s.entry = &viewEntry{v: v, pm: pm, ver: ver, epoch: epoch, gen: gen}
	return s.entry, nil
}

// maintainer returns the session's incremental maintainer for g's policy
// epoch, compiling it on first use; nil means the policy is not chain-only
// for the user. Callers hold s.mu.
func (s *Session) maintainer(g *generation) *view.Maintainer {
	if !s.maintReady || s.maintEpoch != g.epoch {
		s.maint, _ = view.NewMaintainer(g.policy, g.subjects, s.user)
		s.maintEpoch = g.epoch
		s.maintReady = true
	}
	return s.maint
}

// patchPerms builds a fresh cache entry whose permissions are e's patched
// from e.ver up to the generation's version over the generation's delta
// log; the entry keeps e's view, now lagging. It returns nil when
// patching is not possible (the caller re-derives; the reason was
// counted) — and poisons s.entry on a hard patch error. The published
// entry e itself is never mutated: the maintainer patches a Clone of the
// permissions, which shares e's base map and copies only its overlay.
// Callers hold s.mu.
func (s *Session) patchPerms(ctx context.Context, g *generation, e *viewEntry) *viewEntry {
	m := s.maintainer(g)
	if m == nil {
		incFallbackIneligible.Inc()
		obs.AnnotateCtx(ctx, "incremental_fallback", "ineligible")
		return nil
	}
	chain, ok := g.deltaChain(e.ver)
	if !ok {
		incFallbackGap.Inc()
		obs.AnnotateCtx(ctx, "incremental_fallback", "gap")
		return nil
	}
	pm, err := m.PatchPermsCtx(ctx, g.doc, e.pm, chain)
	if err != nil {
		// The entry's coordinates no longer have a usable continuation;
		// poison the cache so the rebuild starts cold instead of retrying
		// a failing patch on every request.
		s.entry = nil
		incFallbackError.Inc()
		obs.AnnotateCtx(ctx, "incremental_fallback", "error")
		return nil
	}
	return &viewEntry{v: e.v, pm: pm, ver: g.ver(), epoch: e.epoch, gen: e.gen}
}

// catchUpView returns e's lagging view brought up to e.ver = g.ver(): the
// view half of incremental maintenance over the delta chain from the
// view's version, against e's current permissions. A log gap or a failed
// catch-up re-materializes the view from those permissions instead (the
// reason is counted). The returned view is frozen. Only a successful
// patchPerms leaves a view behind, so g's policy epoch has a maintainer.
// Callers hold s.mu.
func (s *Session) catchUpView(ctx context.Context, g *generation, e *viewEntry) *view.View {
	if chain, ok := g.deltaChain(e.v.SourceVersion); !ok {
		incFallbackGap.Inc()
		obs.AnnotateCtx(ctx, "incremental_fallback", "gap")
	} else if v, err := s.maintainer(g).CatchUpViewCtx(ctx, e.v, g.doc, e.pm, chain); err != nil {
		incFallbackError.Inc()
		obs.AnnotateCtx(ctx, "incremental_fallback", "error")
	} else {
		v.Doc.Freeze()
		return v
	}
	v := view.MaterializeCtx(ctx, g.doc, e.pm)
	v.Doc.Freeze()
	return v
}

// View returns an independent snapshot of the user's current view. The
// cached view instance is frozen and shared across concurrent requests,
// so callers get a mutable Snapshot copy.
func (s *Session) View() (*view.View, error) {
	return s.ViewCtx(context.Background())
}

// ViewCtx is View with a request context: a failed materialization is
// audited with the context's request ID (successes are not audited —
// views are rebuilt implicitly on most operations and would drown the
// log).
func (s *Session) ViewCtx(ctx context.Context) (*view.View, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_view", viewStage)
	v, err := s.currentView(ctx, s.db.gen())
	if err != nil {
		sessionOp("view", "error")
		s.db.recordCtx(ctx, "view", s.user, "", "error: "+err.Error(), sp.End())
		return nil, err
	}
	sp.End()
	sessionOp("view", "ok")
	return v.Snapshot(), nil
}

// ViewXML serializes the user's view.
func (s *Session) ViewXML() (string, error) {
	return s.ViewXMLCtx(context.Background())
}

// ViewXMLCtx is ViewXML with a request context. Serialization reads the
// shared frozen view directly — no snapshot copy.
func (s *Session) ViewXMLCtx(ctx context.Context) (string, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_view", viewStage)
	v, err := s.currentView(ctx, s.db.gen())
	if err != nil {
		sessionOp("view", "error")
		s.db.recordCtx(ctx, "view", s.user, "", "error: "+err.Error(), sp.End())
		return "", err
	}
	sp.End()
	sessionOp("view", "ok")
	return v.Doc.XML(), nil
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
// the user's view shows them (§4.4.1). Queries take the one secured read
// path (see secureRead): the rewriter's static classification, else
// evaluation on the source under the session's maintained permissions.
// Every tier is answer-equivalent to the view (pinned by internal/rewrite's
// differential oracle and internal/qfilter's property tests), so the tier
// choice is invisible except in latency and the xmlsec_query_tier_total
// counters.
func (s *Session) Query(path string) ([]Result, error) {
	return s.QueryCtx(context.Background(), path)
}

// QueryCtx is Query with a request context: the request ID (if any) is
// threaded into the audit entry alongside the operation's duration.
func (s *Session) QueryCtx(ctx context.Context, path string) ([]Result, error) {
	out, _, err := s.QueryTieredCtx(ctx, path)
	return out, err
}

// QueryTiered is Query also reporting which ladder tier served the answer.
func (s *Session) QueryTiered(path string) ([]Result, Tier, error) {
	return s.QueryTieredCtx(context.Background(), path)
}

// QueryTieredCtx evaluates path through the secured read path against one
// pinned generation: no lock is taken and concurrent commits cannot tear
// the snapshot.
func (s *Session) QueryTieredCtx(ctx context.Context, path string) ([]Result, Tier, error) {
	return s.QueryTierCtx(ctx, path, TierAuto)
}

// QueryTierCtx is QueryTieredCtx with the ladder pinned to one tier
// (TierAuto routes normally). Pinning exists for A/B debugging — the
// server's -tier flag and the shell's tier command route here. A pinned
// tier that cannot serve the query fails with ErrTierUnavailable instead
// of falling through, so a pinned comparison never silently measures a
// different tier.
func (s *Session) QueryTierCtx(ctx context.Context, path string, forced Tier) ([]Result, Tier, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_query", queryStage)
	fail := func(tier Tier, err error) ([]Result, Tier, error) {
		sessionOp("query", "error")
		s.db.recordCtx(ctx, "query", s.user, path, "error: "+err.Error(), sp.End())
		return nil, tier, err
	}
	rd, err := s.secureRead(ctx, s.db.gen(), path, forced)
	if err != nil {
		return fail(rd.tier, err)
	}
	out := []Result{}
	if rd.c != nil {
		_, xe := obs.StartSpanCtx(ctx, "xpath_eval", xpathStage)
		ns, err := rd.c.SelectFiltered(rd.root, s.vars(), rd.sec)
		xe.AnnotateInt("selected", int64(len(ns)))
		xe.End()
		if err != nil {
			return fail(rd.tier, err)
		}
		out = filteredResults(ns, rd.sec)
	}
	countTier(rd.tier)
	sp.Annotate("query_tier", rd.tier.String())
	sessionOp("query", "ok")
	s.db.recordCtx(ctx, "query", s.user, path, fmt.Sprintf("%d nodes", len(out)), sp.End())
	return out, rd.tier, nil
}

// securedRead is one read resolved by secureRead: the compiled expression
// and where to evaluate it. A nil c is the statically empty answer.
type securedRead struct {
	tier Tier
	c    *xpath.Compiled
	// root is the pinned generation's source root, or the view's root
	// for TierView.
	root *xmltree.Node
	// sec filters the source; nil for a transparent plan and the view.
	sec *xpath.Security
}

// secureRead resolves one read of path on the pinned generation g. This is
// the paper's §5 filtered-query design fed by the session's maintained
// state. Under TierAuto:
//
//   - the rewriter's static classification decides first (Cheney's static
//     enforceability): PlanEmpty is the empty answer, PlanTransparent
//     evaluates the raw query on the source (TierRewrite);
//   - every other read evaluates on the source under qfilter.ForPerms over
//     the session's maintained permissions (TierQfilter) — a cache hit, a
//     delta patch, or one derivation that is then cached (secureSource).
//
// Pinned, TierQfilter runs the maintained-permissions path without the
// static shortcut and TierView evaluates on the maintained view;
// TierRewrite cannot be pinned. The returned read is non-nil even on
// error, carrying the tier to report.
func (s *Session) secureRead(ctx context.Context, g *generation, path string, forced Tier) (*securedRead, error) {
	rd := &securedRead{tier: forced, root: g.doc.Root()}
	switch forced {
	case TierAuto:
		rd.tier = TierQfilter
		pl, err := g.rewriteEngine().ProgramFor(s.user).PlanFor(path)
		if err != nil {
			return rd, err // compile errors are tier-independent
		}
		rd.c = pl.Compiled()
		switch pl.Mode {
		case rewrite.PlanEmpty:
			rd.tier, rd.c = TierRewrite, nil
			return rd, nil
		case rewrite.PlanTransparent:
			rd.tier = TierRewrite
			return rd, nil
		}
	case TierRewrite:
		return rd, fmt.Errorf("%w: the rewrite tier serves only static plans and cannot be pinned", ErrTierUnavailable)
	}
	if rd.c == nil {
		c, err := xpath.Compile(path)
		if err != nil {
			return rd, err
		}
		rd.c = c
	}
	if rd.tier == TierView {
		return rd, s.onView(ctx, g, rd)
	}
	sec, err := s.secureSource(ctx, g)
	if err != nil {
		return rd, err
	}
	rd.sec = sec
	return rd, nil
}

// secureSource returns the filter that evaluates the source of g as the
// session's view shows it: qfilter.ForPerms over the permissions
// currentPerms keeps current. The view document itself is not needed, so
// it is left to catch up later.
func (s *Session) secureSource(ctx context.Context, g *generation) (*xpath.Security, error) {
	pm, err := s.currentPerms(ctx, g)
	if err != nil {
		return nil, err
	}
	return qfilter.ForPerms(pm), nil
}

// onView re-targets rd at the session's view of g, catching the view up
// first if it lags.
func (s *Session) onView(ctx context.Context, g *generation, rd *securedRead) error {
	rd.tier, rd.sec = TierView, nil
	v, err := s.currentView(ctx, g)
	if err != nil {
		return err
	}
	rd.root = v.Doc.Root()
	return nil
}

// filteredResults renders source nodes exactly as the user's materialized
// view would show them: effective labels, filtered string-values, view
// paths. A nil sec renders stored labels: a transparent profile, or nodes
// of the view itself.
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
// the same secured read path as Query. Non-empty node-set values always
// come from the materialized view: handing out raw source nodes would leak
// hidden labels.
func (s *Session) QueryValue(path string) (xpath.Value, error) {
	return s.QueryValueCtx(context.Background(), path)
}

// QueryValueCtx is QueryValue with a request context: the request ID (if
// any) is threaded into the audit entry alongside the operation's
// duration.
func (s *Session) QueryValueCtx(ctx context.Context, path string) (xpath.Value, error) {
	val, _, err := s.QueryValueTieredCtx(ctx, path)
	return val, err
}

// QueryValueTiered is QueryValue also reporting the serving tier.
func (s *Session) QueryValueTiered(path string) (xpath.Value, Tier, error) {
	return s.QueryValueTieredCtx(context.Background(), path)
}

// QueryValueTieredCtx evaluates an arbitrary expression through the
// secured read path (see QueryTieredCtx); a non-empty node-set is
// re-evaluated on the view.
func (s *Session) QueryValueTieredCtx(ctx context.Context, path string) (xpath.Value, Tier, error) {
	return s.QueryValueTierCtx(ctx, path, TierAuto)
}

// QueryValueTierCtx is QueryValueTieredCtx with the ladder pinned to one
// tier (see QueryTierCtx). A pinned qfilter query whose value is a
// non-empty node-set fails with ErrTierUnavailable: only the view
// tier may hand out node-sets without leaking hidden labels.
func (s *Session) QueryValueTierCtx(ctx context.Context, path string, forced Tier) (xpath.Value, Tier, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_query_value", valueStage)
	fail := func(tier Tier, err error) (xpath.Value, Tier, error) {
		sessionOp("query_value", "error")
		s.db.recordCtx(ctx, "query_value", s.user, path, "error: "+err.Error(), sp.End())
		return nil, tier, err
	}
	eval := func(rd *securedRead) (xpath.Value, error) {
		if rd.c == nil {
			// Empty plans only arise from path expressions, whose value is
			// a node-set — here the provably empty one.
			return xpath.NodeSet(nil), nil
		}
		_, xe := obs.StartSpanCtx(ctx, "xpath_eval", xpathStage)
		val, err := rd.c.EvalFiltered(rd.root, s.vars(), rd.sec)
		xe.End()
		return val, err
	}
	g := s.db.gen()
	rd, err := s.secureRead(ctx, g, path, forced)
	if err != nil {
		return fail(rd.tier, err)
	}
	val, err := eval(rd)
	if err != nil {
		return fail(rd.tier, err)
	}
	if ns, ok := val.(xpath.NodeSet); ok && len(ns) > 0 && rd.tier != TierView {
		if forced != TierAuto {
			return fail(rd.tier, fmt.Errorf("%w: non-empty node-set values must come from the view tier", ErrTierUnavailable))
		}
		nodeSetValueFallbacks.Inc()
		if err := s.onView(ctx, g, rd); err != nil {
			return fail(rd.tier, err)
		}
		if val, err = eval(rd); err != nil {
			return fail(rd.tier, err)
		}
	}
	countTier(rd.tier)
	sp.Annotate("query_tier", rd.tier.String())
	sessionOp("query_value", "ok")
	s.db.recordCtx(ctx, "query_value", s.user, path, val.TypeName(), sp.End())
	return val, rd.tier, nil
}

// recordCtx is record with the context's request ID and a duration.
func (db *Database) recordCtx(ctx context.Context, action, user, detail, outcome string, d time.Duration) {
	if db.auditLimit == 0 {
		return
	}
	db.auditMu.Lock()
	db.recordFull(user, action, detail, outcome, obs.RequestID(ctx), d)
	db.auditMu.Unlock()
}

// Update executes one XUpdate operation with the paper's write access
// controls (axioms 18–25). It returns the per-node result.
func (s *Session) Update(op *xupdate.Op) (*xupdate.Result, error) {
	return s.UpdateCtx(context.Background(), op)
}

// UpdateCtx is Update with a request context (request ID into the audit
// entry, duration into the telemetry registry).
func (s *Session) UpdateCtx(ctx context.Context, op *xupdate.Op) (*xupdate.Result, error) {
	res, err := s.updateWithVars(ctx, op, nil)
	if err == nil && s.db.journal != nil && res.Applied > 0 {
		if jerr := s.journalOp(ctx, op); jerr != nil {
			return res, fmt.Errorf("core: operation applied but journaling failed: %w", jerr)
		}
	}
	return res, err
}

// journalOp appends a single-operation modification document.
func (s *Session) journalOp(ctx context.Context, op *xupdate.Op) error {
	doc, err := xupdate.ModificationsString([]*xupdate.Op{op})
	if err != nil {
		return err
	}
	_, err = s.db.journal.AppendCtx(ctx, s.user, doc)
	return err
}

// updateWithVars executes one secured operation through the group-commit
// queue. The closure runs on the commit leader's goroutine against the
// round's state; the span therefore measures queue wait plus execution,
// which is the latency the caller actually experiences.
func (s *Session) updateWithVars(ctx context.Context, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_update", updateStage)
	// Bring the session's permissions up to the current generation on the
	// writer's own goroutine, so the serialized round below usually finds
	// them cached. An error here resurfaces from the round's own
	// derivation.
	_, _, _ = s.writeState(ctx, s.db.gen(), op)
	var res *xupdate.Result
	var err error
	s.db.submit(func(c *commitCtx) {
		fromVer := c.curDoc().Version()
		res, err = s.executeInRound(ctx, c, op, extra)
		if err != nil {
			// A failed executor may have partially mutated the scratch
			// document; no batch is recorded, so if the round still
			// publishes (another write succeeded), the version gap forces
			// session caches to re-materialize (deltaChain reports it).
			sessionOp("update", "error")
			s.db.recordCtx(ctx, "update", s.user, opDetail(op), "error: "+err.Error(), sp.End())
			return
		}
		if toVer := c.curDoc().Version(); toVer != fromVer {
			c.batches = append(c.batches, deltaBatch{fromVer: fromVer, toVer: toVer, deltas: res.Deltas})
		}
		sessionOp("update", "ok")
		s.db.recordCtx(ctx, "update", s.user, opDetail(op),
			fmt.Sprintf("selected=%d applied=%d skipped=%d", res.Selected, res.Applied, len(res.Skipped)),
			sp.End())
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// writeState returns what a secured write of op needs from the session
// for the pinned generation g: the maintained permissions, and the view
// only when op has value-of content to expand on it (nil otherwise), so
// a plain write never makes the view catch up.
func (s *Session) writeState(ctx context.Context, g *generation, op *xupdate.Op) (*policy.Perms, *view.View, error) {
	if op.HasDynamicContent() {
		v, pm, err := s.currentViewPerms(ctx, g)
		return pm, v, err
	}
	pm, err := s.currentPerms(ctx, g)
	return pm, nil, err
}

// executeInRound runs op in the commit round c. While the round's state
// still equals its base generation, the op selects on the frozen base
// document under the session's maintained permissions of that generation
// (a cache hit when the pin taken before submit is still current, a delta
// patch when another round published in between), and the round clones
// the document only when the op is about to change it. Once an earlier
// request in the round changed the document, the policy or the hierarchy,
// the view is derived afresh from the scratch state, as it is when the
// session cannot produce its permissions.
func (s *Session) executeInRound(ctx context.Context, c *commitCtx, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, error) {
	if c.pristine() {
		if pm, v, err := s.writeState(ctx, c.base, op); err == nil {
			securedViewSession.Inc()
			obs.AnnotateCtx(ctx, "view_source", "session")
			return access.ExecuteFilteredCtx(ctx, c.base.doc, c.mutableDoc, pm, v, s.user, op, extra)
		}
	}
	securedViewRebuild.Inc()
	obs.AnnotateCtx(ctx, "view_source", "rebuild")
	res, _, err := access.ExecuteWithVarsCtx(ctx, c.mutableDoc(), c.curSubjects(), c.curPolicy(), s.user, op, extra)
	return res, err
}

// Apply parses an <xupdate:modifications> document and executes its
// operations in order, returning one result per operation (a zero result
// for xupdate:variable bindings, which are threaded through the sequence
// and evaluated against the user's view). Execution stops at the first
// hard error; privilege refusals are not errors (they appear as skipped
// nodes in the results).
func (s *Session) Apply(modifications string) ([]*xupdate.Result, error) {
	return s.ApplyCtx(context.Background(), modifications)
}

// ApplyCtx is Apply with a request context.
func (s *Session) ApplyCtx(ctx context.Context, modifications string) ([]*xupdate.Result, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_apply", applyStage)
	results, err := s.apply(ctx, modifications)
	if err != nil {
		sp.End()
		sessionOp("apply", "error")
		return results, err
	}
	sp.End()
	sessionOp("apply", "ok")
	if s.db.journal != nil && anyApplied(results) {
		if _, jerr := s.db.journal.AppendCtx(ctx, s.user, modifications); jerr != nil {
			return results, fmt.Errorf("core: modifications applied but journaling failed: %w", jerr)
		}
	}
	return results, nil
}

func anyApplied(results []*xupdate.Result) bool {
	for _, r := range results {
		if r.Applied > 0 {
			return true
		}
	}
	return false
}

// apply executes a modification document without journaling (used by Apply
// and by journal replay).
func (s *Session) apply(ctx context.Context, modifications string) ([]*xupdate.Result, error) {
	ops, err := xupdate.ParseModificationsString(modifications)
	if err != nil {
		return nil, err
	}
	env := xpath.Vars{}
	results := make([]*xupdate.Result, 0, len(ops))
	for _, op := range ops {
		if op.Kind == xupdate.Variable {
			if err := op.Validate(); err != nil {
				return results, err
			}
			// Bind on the shared frozen view: evaluation only reads it, and
			// value-of content is copied into a fresh fragment on expansion.
			v, err := s.currentView(ctx, s.db.gen())
			if err != nil {
				return results, err
			}
			val, err := op.BindVariable(v.Doc.Root(), mergeUser(env, s.user))
			if err != nil {
				return results, err
			}
			env[op.VarName()] = val
			results = append(results, &xupdate.Result{})
			continue
		}
		res, err := s.updateWithVars(ctx, op, env)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// mergeUser returns env plus the $USER binding.
func mergeUser(env xpath.Vars, user string) xpath.Vars {
	out := make(xpath.Vars, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	out["USER"] = xpath.String(user)
	return out
}

func opDetail(op *xupdate.Op) string {
	switch op.Kind {
	case xupdate.Rename, xupdate.Update:
		return fmt.Sprintf("%s select=%s vnew=%s", op.Kind, op.Select, op.NewValue)
	default:
		return fmt.Sprintf("%s select=%s", op.Kind, op.Select)
	}
}

// ApplyAs implements journal.Applier: it executes a logged modification
// document as the given user through the normal security path, without
// re-journaling. Used by Recover.
func (db *Database) ApplyAs(user, modifications string) error {
	s, err := db.Session(user)
	if err != nil {
		return err
	}
	_, err = s.apply(context.Background(), modifications)
	return err
}

// Recover rebuilds state from a snapshot plus its journal suffix: the
// snapshot is restored, then every journal entry is re-executed through
// the security path. It returns the database and the last replayed
// sequence number (pass it to WithJournal to continue the same log).
// A torn final journal entry (crash during append) is tolerated: the
// intact prefix is applied.
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
	applied, lastSeq, err := journal.Replay(db, entries)
	if err != nil {
		return nil, lastSeq, err
	}
	detail := fmt.Sprintf("replayed %d entries", applied)
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
// document but observes only the user's authorized view (secureSource:
// qfilter.ForPerms over the session's maintained permissions).
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
	sec, err := s.secureSource(ctx, g)
	if err != nil {
		return fail(err)
	}
	out, err := sheet.TransformString(g.doc, s.vars(), sec)
	if err != nil {
		return fail(err)
	}
	sessionOp("transform", "ok")
	s.db.recordCtx(ctx, "transform", s.user, "stylesheet", fmt.Sprintf("%d bytes", len(out)), sp.End())
	return out, nil
}
