// Package policy implements the security policy of §4.3: rules of the form
// rule(accept|deny, privilege, path, subject, priority) and the conflict
// resolution of axiom 14, which derives the actual privileges perm(s, n, r)
// held by each subject on each node.
//
// Priorities are the timestamps of rule insertion: "the last issued command
// has the priority over the previous ones and possibly cancels them". An
// accept at time t grants unless an applicable deny exists strictly later
// (t' > t); symmetrically a deny is overridden by a strictly later accept.
// With no applicable accept at all, the privilege is denied (closed world).
package policy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"securexml/internal/obs"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Telemetry: every perm(s, n, r) lookup is one access-control decision
// (axiom 14); the counters split allow/deny per privilege. Handles are
// resolved once so the hot path (two map hits per node during view
// materialization) stays a single atomic increment.
var (
	evalStage       = obs.Stage("policy_evaluate")
	ruleEvals       = obs.Default().Counter("xmlsec_policy_rule_evals_total")
	decisionCounter = func() (d [numPrivileges][2]*obs.Counter) {
		for _, p := range Privileges {
			d[p][0] = obs.Default().Counter("xmlsec_policy_decisions_total",
				"privilege", p.MetricLabel(), "effect", "deny")
			d[p][1] = obs.Default().Counter("xmlsec_policy_decisions_total",
				"privilege", p.MetricLabel(), "effect", "allow")
		}
		return
	}()
)

// countDecision records one allow/deny decision for priv.
func countDecision(priv Privilege, allowed bool) {
	if priv < 0 || priv >= numPrivileges {
		return
	}
	if allowed {
		decisionCounter[priv][1].Inc()
	} else {
		decisionCounter[priv][0].Inc()
	}
}

// Privilege is one of the five privileges of §4.3.
type Privilege int

// The privileges. Position reveals a node's existence (RESTRICTED label);
// Read reveals existence and label; Insert allows adding a subtree under a
// node; Update allows changing a node's label; Delete allows removing the
// subtree rooted at a node.
const (
	Position Privilege = iota
	Read
	Insert
	Update
	Delete
	numPrivileges
)

// Privileges lists all privileges in declaration order.
var Privileges = []Privilege{Position, Read, Insert, Update, Delete}

// String returns the paper's name for the privilege.
func (p Privilege) String() string {
	switch p {
	case Position:
		return "position"
	case Read:
		return "read"
	case Insert:
		return "insert"
	case Update:
		return "update"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("privilege(%d)", int(p))
	}
}

// MetricLabel returns the privilege's telemetry label. Unlike String,
// every branch (including the default) returns a literal, so labels built
// from privileges stay compile-time bounded — the property xmlsec-vet's
// obslabel pass enforces.
func (p Privilege) MetricLabel() string {
	switch p {
	case Position:
		return "position"
	case Read:
		return "read"
	case Insert:
		return "insert"
	case Update:
		return "update"
	case Delete:
		return "delete"
	default:
		return "unknown"
	}
}

// ParsePrivilege parses a privilege name.
func ParsePrivilege(s string) (Privilege, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "position":
		return Position, nil
	case "read":
		return Read, nil
	case "insert":
		return Insert, nil
	case "update":
		return Update, nil
	case "delete":
		return Delete, nil
	default:
		return 0, fmt.Errorf("policy: unknown privilege %q", s)
	}
}

// Effect says whether a rule grants or denies.
type Effect int

// Rule effects.
const (
	Accept Effect = iota
	Deny
)

// String returns "accept" or "deny".
func (e Effect) String() string {
	if e == Deny {
		return "deny"
	}
	return "accept"
}

// Rule is one security rule: subject is granted/denied privilege on the
// nodes addressed by path, with the given priority.
type Rule struct {
	Effect    Effect
	Privilege Privilege
	Path      string
	Subject   string
	Priority  int64

	compiled *xpath.Compiled
	// matcher is the chain-only per-node form of the path (nil when the
	// path falls outside the xpath.NodeMatcher fragment) and usesUser
	// records whether the path references $USER. Both are derived once at
	// Add time; EvaluateShared partitions rules on them — $USER-independent
	// rules select the same node set for every user, so their sets can be
	// cached across sessions, and matcher-capable rules can share one
	// document walk through an xpath.Bank.
	matcher  *xpath.NodeMatcher
	usesUser bool
}

// String renders the rule in the paper's notation.
func (r *Rule) String() string {
	return fmt.Sprintf("rule(%s,%s,%s,%s,%d)", r.Effect, r.Privilege, r.Path, r.Subject, r.Priority)
}

// Errors returned by policy operations.
var (
	ErrUnknownSubject    = errors.New("policy: rule subject not in the hierarchy")
	ErrDuplicatePriority = errors.New("policy: priority already used (the model assumes a total order)")
)

// Policy is an ordered set of rules protecting one database.
type Policy struct {
	rules []*Rule // sorted by ascending priority
	next  int64   // next auto-assigned priority
}

// New returns an empty policy. With no rules every privilege is denied.
func New() *Policy { return &Policy{next: 1} }

// Add inserts a rule with an explicit priority. Subjects are checked against
// h so that rules cannot name unknown subjects. Paths are compiled eagerly
// so syntax errors surface at administration time, as a database would.
func (p *Policy) Add(h *subject.Hierarchy, r Rule) error {
	if !h.Exists(r.Subject) {
		return fmt.Errorf("%w: %q", ErrUnknownSubject, r.Subject)
	}
	if r.Privilege < 0 || r.Privilege >= numPrivileges {
		return fmt.Errorf("policy: invalid privilege %d", int(r.Privilege))
	}
	if r.Priority <= 0 {
		return fmt.Errorf("policy: priority must be positive (timestamps), got %d", r.Priority)
	}
	c, err := xpath.Compile(r.Path)
	if err != nil {
		return fmt.Errorf("policy: rule path: %w", err)
	}
	for _, existing := range p.rules {
		if existing.Priority == r.Priority {
			return fmt.Errorf("%w: %d", ErrDuplicatePriority, r.Priority)
		}
	}
	r.compiled = c
	r.matcher, _ = c.NodeMatcher()
	r.usesUser = c.UsesVariable("USER")
	p.rules = append(p.rules, &r)
	sort.SliceStable(p.rules, func(i, j int) bool { return p.rules[i].Priority < p.rules[j].Priority })
	if err := p.verifySorted(); err != nil {
		return err
	}
	if r.Priority >= p.next {
		p.next = r.Priority + 1
	}
	return nil
}

// verifySorted checks the strictly-ascending priority invariant that the
// axiom-14 merges (Evaluate's and EvaluateShared's latest-wins scans) rely
// on. Add establishes it by sorting after every insertion and rejecting
// duplicate priorities; verifySorted asserts it so any future mutation path
// fails loudly instead of silently mis-resolving conflicts.
func (p *Policy) verifySorted() error {
	for i := 1; i < len(p.rules); i++ {
		if p.rules[i-1].Priority >= p.rules[i].Priority {
			return fmt.Errorf("policy: rules not in strictly ascending priority order (%d then %d)",
				p.rules[i-1].Priority, p.rules[i].Priority)
		}
	}
	return nil
}

// Grant appends an accept rule with the next priority (the "last issued
// command wins" discipline of §4.3).
func (p *Policy) Grant(h *subject.Hierarchy, priv Privilege, path, subj string) error {
	return p.Add(h, Rule{Effect: Accept, Privilege: priv, Path: path, Subject: subj, Priority: p.next})
}

// Revoke appends a deny rule with the next priority.
func (p *Policy) Revoke(h *subject.Hierarchy, priv Privilege, path, subj string) error {
	return p.Add(h, Rule{Effect: Deny, Privilege: priv, Path: path, Subject: subj, Priority: p.next})
}

// Rules returns the rules in ascending priority order. The returned slice
// must not be modified.
func (p *Policy) Rules() []*Rule { return p.rules }

// Len returns the number of rules.
func (p *Policy) Len() int { return len(p.rules) }

// Clone returns an independent copy of the policy. It panics if the rule
// slice has lost its ascending-priority order — only possible by mutating
// the slice Rules() exposes, which its contract forbids.
func (p *Policy) Clone() *Policy {
	if err := p.verifySorted(); err != nil {
		panic(err.Error() + " (the slice returned by Rules() must not be modified)")
	}
	c := &Policy{next: p.next, rules: make([]*Rule, len(p.rules))}
	for i, r := range p.rules {
		cp := *r
		c.rules[i] = &cp
	}
	return c
}

// Perms is the materialized perm(s, n, r) relation for one user on one
// document snapshot (axiom 14).
type Perms struct {
	user    string
	version uint64
	// grants[nodeID] is a bitmask over privileges. When shared is set the
	// map belongs to a RuleCache and is read by other sessions — callers
	// must clone before mutating; mutators go through mutable() to get a
	// private copy first. overlay holds this user's divergences from the
	// shared map ($USER-dependent rules): a present entry wins over
	// grants, with 0 meaning no access.
	grants  map[string]uint8
	overlay map[string]uint8
	shared  bool
}

// User returns the subject the permissions were computed for.
func (pm *Perms) User() string { return pm.user }

// DocVersion returns the document version the permissions were computed
// against; higher layers use it for cache invalidation.
func (pm *Perms) DocVersion() uint64 { return pm.version }

// Has reports perm(user, n, priv).
func (pm *Perms) Has(n *xmltree.Node, priv Privilege) bool {
	return pm.HasID(n.IDString(), priv)
}

// Clone returns a private deep copy of the permission relation, with any
// shared RuleCache map and $USER overlay flattened into an owned grants
// map. The copy is safe to hand to the incremental maintainer (whose
// Rescore/Forget mutate in place) while other readers keep using the
// original — the copy-on-write session caches patch a Clone and swap it in
// rather than mutating a published Perms.
func (pm *Perms) Clone() *Perms {
	c := &Perms{user: pm.user, version: pm.version}
	c.grants = make(map[string]uint8, len(pm.grants))
	for id, mask := range pm.grants {
		c.grants[id] = mask
	}
	for id, mask := range pm.overlay {
		if mask == 0 {
			delete(c.grants, id)
		} else {
			c.grants[id] = mask
		}
	}
	return c
}

// HasID reports perm(user, id, priv) by node identifier.
func (pm *Perms) HasID(id string, priv Privilege) bool {
	mask, inOverlay := pm.overlay[id]
	if !inOverlay {
		mask = pm.grants[id]
	}
	ok := mask&(1<<uint(priv)) != 0
	countDecision(priv, ok)
	return ok
}

// Evaluate computes the perm relation for user on doc, per axiom 14:
//
//	perm(s, n, r) holds iff some accept rule (r, p, s', t) with isa(s, s')
//	addresses n, and no deny rule (r, p', s'', t') with isa(s, s'') and
//	t' > t addresses n.
//
// Equivalently: among the applicable rules addressing n for privilege r, the
// one with the greatest priority is an accept. Rule paths are evaluated on
// the source document with $USER bound to the user's login.
func (p *Policy) Evaluate(doc *xmltree.Document, h *subject.Hierarchy, user string) (*Perms, error) {
	return p.EvaluateCtx(context.Background(), doc, h, user)
}

// EvaluateCtx is Evaluate with request-scoped tracing: under an active
// trace it records a policy_evaluate span annotated with the applicable
// rule and granted node counts.
func (p *Policy) EvaluateCtx(ctx context.Context, doc *xmltree.Document, h *subject.Hierarchy, user string) (*Perms, error) {
	_, sp := obs.StartSpanCtx(ctx, "policy_evaluate", evalStage)
	defer sp.End()
	applicable := 0
	pm := &Perms{user: user, version: doc.Version(), grants: make(map[string]uint8)}
	// latest[nodeID][priv] = priority of the latest applicable rule; sign
	// tracked separately via accepts bitmask updates below.
	type cell struct {
		priority int64
		effect   Effect
	}
	latest := make(map[string]*[numPrivileges]cell)
	vars := xpath.Vars{"USER": xpath.String(user)}
	// Strictly ascending priority (Add's verifySorted invariant): later
	// rules overwrite, so the >= below can never see an equal priority.
	for _, r := range p.rules {
		if !h.ISA(user, r.Subject) {
			continue
		}
		applicable++
		ns, err := r.compiled.Select(doc.Root(), vars)
		ruleEvals.Inc()
		if err != nil {
			return nil, fmt.Errorf("policy: evaluating %s: %w", r, err)
		}
		for _, n := range ns {
			id := n.IDString()
			c := latest[id]
			if c == nil {
				c = &[numPrivileges]cell{}
				latest[id] = c
			}
			if r.Priority >= c[r.Privilege].priority {
				c[r.Privilege] = cell{priority: r.Priority, effect: r.Effect}
			}
		}
	}
	for id, cells := range latest {
		var mask uint8
		for _, priv := range Privileges {
			if cells[priv].priority > 0 && cells[priv].effect == Accept {
				mask |= 1 << uint(priv)
			}
		}
		if mask != 0 {
			pm.grants[id] = mask
		}
	}
	sp.AnnotateInt("rules_applicable", int64(applicable))
	sp.AnnotateInt("nodes_granted", int64(len(pm.grants)))
	return pm, nil
}

// PaperPolicy builds the twelve-rule hospital policy of axiom 13, with the
// paper's priorities 10–21.
//
// Two notational translations from the paper's abbreviated paths to strict
// XPath 1.0 (see DESIGN.md):
//
//   - the paper writes '*' where it means "any child node" — strict XPath
//     matches elements only with '*', which would hide text content even
//     from doctors — so '*' becomes node() where text nodes are intended
//     (rules 1–3, 11, 12);
//   - rule 5's "/patients/descendant-or-self::*[$USER]" (a patient sees the
//     subtree of the element named after them) is spelled out as
//     "/patients/*[name() = $USER]/descendant-or-self::node()".
func PaperPolicy(h *subject.Hierarchy) (*Policy, error) {
	p := New()
	rule := func(e Effect, r Privilege, path, subj string, prio int64) Rule {
		return Rule{Effect: e, Privilege: r, Path: path, Subject: subj, Priority: prio}
	}
	rules := []Rule{
		rule(Accept, Read, "/descendant-or-self::node()", "staff", 10),
		rule(Deny, Read, "//diagnosis/node()", "secretary", 11),
		rule(Accept, Position, "//diagnosis/node()", "secretary", 12),
		rule(Accept, Read, "/patients", "patient", 13),
		rule(Accept, Read, "/patients/*[name() = $USER]/descendant-or-self::node()", "patient", 14),
		rule(Deny, Read, "/patients/*", "epidemiologist", 15),
		rule(Accept, Position, "/patients/*", "epidemiologist", 16),
		rule(Accept, Insert, "/patients", "secretary", 17),
		rule(Accept, Update, "/patients/*", "secretary", 18),
		rule(Accept, Insert, "//diagnosis", "doctor", 19),
		rule(Accept, Update, "//diagnosis/node()", "doctor", 20),
		rule(Accept, Delete, "//diagnosis/node()", "doctor", 21),
	}
	for _, r := range rules {
		if err := p.Add(h, r); err != nil {
			return nil, err
		}
	}
	return p, nil
}
