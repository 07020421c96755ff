// Package rewrite implements static read enforcement: it turns the policy
// itself into an executable guard so a user's query runs directly on the
// *source* document — no axiom-14 per-node permission mask, no
// materialized axiom-15–17 view — yet returns exactly the answer the same
// query would produce over that user's view, RESTRICTED substitution and
// hereditary hiding included. This is the approach of Cheney's "Static
// Enforceability of XPath-Based Access Control Policies" and
// Mahfoud–Imine's "A General Approach for Securely Querying and Updating
// XML Data" adapted to the paper's priority-merge semantics (axiom 14).
//
// The supported fragment is the chain-only xpath.NodeMatcher fragment of
// the user's applicable read and position rules: each such rule decides a
// node's membership from the node's root-to-node chain alone, so the
// axiom-14 latest-priority merge for {read, position} can be re-run per
// visited node in O(depth × steps) during evaluation — the per-node
// permission relation never exists as data. Rules for the write privileges
// (insert, update, delete) are irrelevant to reads and never disqualify a
// profile; this is deliberately weaker than the incremental-maintenance
// gate (view.NewMaintainer), which needs *all* applicable rules chain-only.
//
// On top of the guarded evaluation, two genuinely static rewrites are
// decided per (profile, query) with the policy analyzer's word automata
// over xpath.Pattern abstractions (intersection/complement searches):
//
//   - PlanEmpty: the query's pattern shares no root-to-node word with any
//     applicable accept read/position rule and cannot select the document
//     node, so no node the query could ever select is visible — the
//     rewritten query is the empty query. Sound for inexact patterns,
//     because both sides only over-approximate.
//   - PlanTransparent: every possible node's latest-priority read decision
//     is an accept (checked over the pattern alphabet, requiring every
//     applicable read rule to be Exact), so the filter is the identity and
//     the rewritten query is the raw query.
//
// Everything else runs as PlanGuarded. Queries or rules outside the
// fragment, and evaluations that fail at runtime, fall back to the
// qfilter/view paths with per-reason counters (xmlsec_rewrite_fallback_total);
// the fallback is sound because the lower tiers are themselves
// answer-equivalent to the view (internal/qfilter's property tests).
//
// Programs are shared per rule *profile* — the set of applicable read and
// position rules — not per user: $USER stays a runtime variable, so every
// patient shares one program and one plan cache. Engines are built per
// policy epoch (internal/core keys them so), which makes every cache here
// document-independent: a rewritten query survives arbitrary document
// mutations, unlike any per-user view or permission mask.
package rewrite

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/policyanalysis"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Reason says why a query could not be served by the rewrite tier.
type Reason int

// Fallback reasons. ReasonNone means the query was (or could be) served.
const (
	ReasonNone Reason = iota
	// ReasonRuleFragment: some applicable read/position rule is outside
	// the chain-only NodeMatcher fragment, so per-node re-derivation of
	// the axiom-14 merge is unsound for this profile.
	ReasonRuleFragment
	// ReasonEvalError: a rule matcher or the guarded evaluation itself
	// failed at runtime; the authoritative paths decide the outcome.
	ReasonEvalError
	// ReasonNodeSetValue: a value query produced a non-empty node-set.
	// Handing out raw source nodes would leak hidden labels, so node-set
	// values must come from the materialized view.
	ReasonNodeSetValue
	numReasons
)

// String names the reason.
func (r Reason) String() string { return r.MetricLabel() }

// MetricLabel returns the reason's telemetry label. Every branch returns a
// literal so labels stay compile-time bounded (xmlsec-vet obslabel).
func (r Reason) MetricLabel() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonRuleFragment:
		return "rule_fragment"
	case ReasonEvalError:
		return "eval_error"
	case ReasonNodeSetValue:
		return "nodeset_value"
	default:
		return "unknown"
	}
}

// Telemetry: fallbacks by reason, resolved once.
var fallbackCounters = func() (c [numReasons]*obs.Counter) {
	for r := ReasonNone + 1; r < numReasons; r++ {
		c[r] = obs.Default().Counter("xmlsec_rewrite_fallback_total", "reason", r.MetricLabel())
	}
	return
}()

// CountFallback records one rewrite-tier fallback by reason.
func CountFallback(r Reason) {
	if r > ReasonNone && r < numReasons {
		fallbackCounters[r].Inc()
	}
}

// ruleInfo is the rewriter's compiled form of one read/position rule.
type ruleInfo struct {
	subject  string
	priv     policy.Privilege
	effect   policy.Effect
	priority int64
	usesUser bool
	text     string
	matcher  *xpath.NodeMatcher // nil: outside the chain-only fragment
	pattern  *xpath.Pattern
}

// Engine holds the rewriter's state for one (policy, hierarchy) epoch:
// the compiled read/position rules plus the per-profile program cache.
// Safe for concurrent use; internal/core replaces the whole engine when
// the policy epoch moves, so nothing here ever needs invalidation.
type Engine struct {
	h     *subject.Hierarchy
	rules []ruleInfo // ascending priority (policy.Rules order)

	mu       sync.Mutex
	programs map[string]*Program // by profile key (applicable rule indices)
	users    map[string]*Program // login -> program; nil = fragment fallback
}

// NewEngine compiles the policy's read and position rules for rewriting.
// Rules carrying write privileges are ignored: they cannot influence any
// answer under axioms 15–17.
func NewEngine(p *policy.Policy, h *subject.Hierarchy) *Engine {
	e := &Engine{
		h:        h,
		programs: make(map[string]*Program),
		users:    make(map[string]*Program),
	}
	for _, r := range p.Rules() {
		if r.Privilege != policy.Read && r.Privilege != policy.Position {
			continue
		}
		ri := ruleInfo{
			subject:  r.Subject,
			priv:     r.Privilege,
			effect:   r.Effect,
			priority: r.Priority,
			text:     r.String(),
		}
		// Paths were compiled by policy.Add, so this cannot fail for a
		// well-formed policy; a failure just makes the rule non-chain,
		// which falls back safely.
		if c, err := xpath.Compile(r.Path); err == nil {
			ri.matcher, _ = c.NodeMatcher()
			ri.pattern = c.Pattern()
			ri.usesUser = c.UsesVariable("USER")
		}
		e.rules = append(e.rules, ri)
	}
	return e
}

// ProgramFor returns the shared program for the user's rule profile, or a
// fallback reason when some applicable read/position rule is outside the
// chain-only fragment. Programs are cached per profile, so all users with
// the same applicable rules (e.g. every patient — $USER stays a variable)
// share one program and one plan cache.
func (e *Engine) ProgramFor(user string) (*Program, Reason) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pg, ok := e.users[user]; ok {
		if pg == nil {
			return nil, ReasonRuleFragment
		}
		return pg, ReasonNone
	}
	var idx []int
	for i := range e.rules {
		if e.h.ISA(user, e.rules[i].subject) {
			idx = append(idx, i)
		}
	}
	var b strings.Builder
	for _, i := range idx {
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(',')
	}
	key := b.String()
	pg, ok := e.programs[key]
	if !ok {
		pg = buildProgram(e.rules, idx)
		e.programs[key] = pg
	}
	e.users[user] = pg
	if pg == nil {
		return nil, ReasonRuleFragment
	}
	return pg, ReasonNone
}

// Program is the compiled read-enforcement program of one rule profile:
// the applicable read/position rules in ascending priority, their pattern
// abstractions for static classification, and the per-query plan cache.
type Program struct {
	rules       []ruleInfo
	acceptPats  []*xpath.Pattern // patterns of the accept rules (visibility over-approximation)
	transparent bool

	mu    sync.Mutex
	plans map[string]*Plan

	secMu sync.Mutex
	secs  map[string]*userSec
}

// buildProgram compiles the profile selected by idx, or returns nil when
// any applicable rule lacks a chain-only matcher.
func buildProgram(rules []ruleInfo, idx []int) *Program {
	pg := &Program{plans: make(map[string]*Plan)}
	for _, i := range idx {
		if rules[i].matcher == nil {
			return nil
		}
		pg.rules = append(pg.rules, rules[i])
	}
	for i := range pg.rules {
		if pg.rules[i].effect == policy.Accept {
			pg.acceptPats = append(pg.acceptPats, pg.rules[i].pattern)
		}
	}
	pg.transparent = pg.checkTransparent()
	return pg
}

// Rules returns the profile's applicable read/position rules rendered in
// the paper's notation, for diagnostics and tests.
func (pg *Program) Rules() []string {
	out := make([]string, len(pg.rules))
	for i := range pg.rules {
		out[i] = pg.rules[i].text
	}
	return out
}

// Transparent reports whether the profile reads every node of every
// document (so rewriting is the identity).
func (pg *Program) Transparent() bool { return pg.transparent }

// checkTransparent decides profile transparency: no root-to-node word
// exists whose latest-priority read decision is missing or a deny. The
// document node is exempt (axiom 15: the root is always visible, and its
// string-value is covered because all text words must still be readable).
// Soundness needs every applicable read pattern to be Exact — an inexact
// accept pattern over-approximates the rule's true grant.
func (pg *Program) checkTransparent() bool {
	var reads []ruleInfo
	for _, ri := range pg.rules {
		if ri.priv == policy.Read {
			reads = append(reads, ri)
		}
	}
	if len(reads) == 0 {
		return false
	}
	for _, ri := range reads {
		if !ri.pattern.Exact {
			return false
		}
	}
	pats := []*xpath.Pattern{policyanalysis.RootOnlyPattern()}
	for _, ri := range reads {
		pats = append(pats, ri.pattern)
	}
	return !policyanalysis.MatchableWord(pats, func(match []bool) bool {
		if match[0] {
			return false // the document node itself
		}
		last := -1 // reads is in ascending priority, so the last match wins
		for i := range reads {
			if match[i+1] {
				last = i
			}
		}
		return last < 0 || reads[last].effect == policy.Deny
	})
}

// PlanMode classifies a rewritten query.
type PlanMode int

// Plan modes.
const (
	// PlanGuarded evaluates the query on the source document under the
	// chain-derived security filter (the general rewrite).
	PlanGuarded PlanMode = iota
	// PlanTransparent evaluates the raw query: the profile reads
	// everything, so the filter is the identity.
	PlanTransparent
	// PlanEmpty returns the statically empty answer: nothing the query
	// could select is visible to the profile.
	PlanEmpty
)

// String names the mode.
func (m PlanMode) String() string {
	switch m {
	case PlanGuarded:
		return "guarded"
	case PlanTransparent:
		return "transparent"
	case PlanEmpty:
		return "empty"
	default:
		return "unknown"
	}
}

// Plan is one rewritten query: the compiled expression plus its static
// classification for this profile. Plans are cached per (profile, query
// text) and are document-independent.
type Plan struct {
	Mode PlanMode
	c    *xpath.Compiled
}

// maxPlans bounds a profile's plan cache; on overflow the cache resets
// (queries re-plan, nothing breaks).
const maxPlans = 4096

// PlanFor compiles and classifies query for this profile, serving from the
// plan cache when possible. A compile error is the caller's to report — it
// is tier-independent (every tier would fail the same way).
func (pg *Program) PlanFor(query string) (*Plan, error) {
	pg.mu.Lock()
	if pl, ok := pg.plans[query]; ok {
		pg.mu.Unlock()
		return pl, nil
	}
	pg.mu.Unlock()
	c, err := xpath.Compile(query)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Mode: PlanGuarded, c: c}
	if pg.transparent {
		pl.Mode = PlanTransparent
	} else if pg.provablyEmpty(c.Pattern()) {
		pl.Mode = PlanEmpty
	}
	pg.mu.Lock()
	if len(pg.plans) >= maxPlans {
		pg.plans = make(map[string]*Plan)
	}
	pg.plans[query] = pl
	pg.mu.Unlock()
	return pl, nil
}

// provablyEmpty reports whether no node the query could select is visible:
// the query pattern cannot match the document node and shares no word with
// any applicable accept rule's pattern. Both patterns over-approximate, so
// an empty intersection is conclusive regardless of exactness. A pattern
// that can prove emptiness only arises from path/union expressions, which
// always evaluate to node-sets — so an empty plan is always a node-set.
func (pg *Program) provablyEmpty(qp *xpath.Pattern) bool {
	if qp.MatchesRoot() {
		return false
	}
	if len(pg.acceptPats) == 0 {
		return true
	}
	pats := append([]*xpath.Pattern{qp}, pg.acceptPats...)
	return !policyanalysis.MatchableWord(pats, func(match []bool) bool {
		if !match[0] {
			return false
		}
		for _, m := range match[1:] {
			if m {
				return true
			}
		}
		return false
	})
}

// Select evaluates the plan as a node-set query over root (the source
// document node) under sec. Pass the Security from Program.Security for
// guarded plans and nil for transparent ones.
func (pl *Plan) Select(root *xmltree.Node, vars xpath.Vars, sec *xpath.Security) (xpath.NodeSet, error) {
	return pl.c.SelectFiltered(root, vars, sec)
}

// Eval evaluates the plan as an arbitrary expression over root under sec.
func (pl *Plan) Eval(root *xmltree.Node, vars xpath.Vars, sec *xpath.Security) (xpath.Value, error) {
	return pl.c.EvalFiltered(root, vars, sec)
}

// EvalState carries the runtime outcome of one guarded evaluation: if any
// rule matcher failed, the evaluation's answer is unusable and the caller
// must fall back (ReasonEvalError).
type EvalState struct{ err error }

// Err returns the first matcher error, if any.
func (st *EvalState) Err() error { return st.err }

// Visibility mask bits: position admits a node into the view with the
// RESTRICTED label (axiom 17), read with its own label (axiom 16).
const (
	maskPosition = 1 << 0
	maskRead     = 1 << 1
)

// ruleMask re-runs the axiom-14 latest-priority merge for {read, position}
// on one node and folds the two surviving decisions into a visibility
// mask. It is the single source of truth for both the per-evaluation
// Security memo and the cross-request SecurityFor cache.
func (pg *Program) ruleMask(n *xmltree.Node, vars xpath.Vars) (uint8, error) {
	var posSet, readSet bool
	var posEff, readEff policy.Effect
	// Every rule reads the same root-to-node chain; build it once, on
	// the stack for ordinary depths.
	var buf [16]*xmltree.Node
	chain := xpath.AppendChain(buf[:0], n)
	// Ascending priority: a later match overwrites, so the survivor
	// is the latest-priority decision (axiom 14). Every rule runs, even
	// after a decisive match, so the same matcher errors surface.
	for i := range pg.rules {
		ri := &pg.rules[i]
		ok, err := ri.matcher.MatchChain(chain, vars)
		if err != nil {
			return 0, fmt.Errorf("rewrite: %s: %w", ri.text, err)
		}
		if !ok {
			continue
		}
		if ri.priv == policy.Read {
			readSet, readEff = true, ri.effect
		} else {
			posSet, posEff = true, ri.effect
		}
	}
	var m uint8
	if posSet && posEff == policy.Accept {
		m |= maskPosition
	}
	if readSet && readEff == policy.Accept {
		m |= maskRead
	}
	return m, nil
}

// secFromMask wraps a mask function into the xpath filter: a node is
// visible with read or position (axioms 16–17) and shows its own label
// only with read; the document node is always visible with its own label
// (axiom 15).
func secFromMask(mask func(*xmltree.Node) uint8) *xpath.Security {
	return &xpath.Security{
		Visible: func(n *xmltree.Node) bool {
			if n.Kind() == xmltree.KindDocument {
				return true
			}
			return mask(n) != 0
		},
		Label: func(n *xmltree.Node) string {
			if n.Kind() == xmltree.KindDocument {
				return n.Label()
			}
			if mask(n)&maskRead != 0 {
				return n.Label()
			}
			return xmltree.Restricted
		},
	}
}

// Security builds the chain-derived filter for one evaluation with the
// given variable bindings ($USER must be bound). Visibility and labels
// re-run the axiom-14 latest-priority merge for {read, position} per node,
// memoized for the evaluation; a node is visible with read or position
// (axioms 16–17) and shows its own label only with read. The document
// node is always visible with its own label (axiom 15).
//
// The returned Security and state are single-use and single-goroutine:
// the memo is not locked. For a memo that survives the evaluation and is
// shared across concurrent requests, use SecurityFor.
func (pg *Program) Security(vars xpath.Vars) (*xpath.Security, *EvalState) {
	st := &EvalState{}
	memo := make(map[*xmltree.Node]uint8)
	mask := func(n *xmltree.Node) uint8 {
		if m, ok := memo[n]; ok {
			return m
		}
		m, err := pg.ruleMask(n, vars)
		if err != nil && st.err == nil {
			st.err = err
		}
		memo[n] = m
		return m
	}
	return secFromMask(mask), st
}

// userSec is one user's cross-request mask memo, valid for exactly one
// source-document snapshot. Frozen snapshots make node identity stable, so
// the memo never needs invalidation finer than "the snapshot moved" — the
// whole entry is replaced then. The sync.Map is safe for the concurrent
// readers of one generation.
type userSec struct {
	snap *xmltree.Document
	memo sync.Map // *xmltree.Node → uint8
}

// secCacheCap bounds the per-program user cache; when the population of
// distinct users outgrows it the whole cache is reset rather than evicted
// piecewise (rebuilding a memo costs one rule sweep per visited node).
const secCacheCap = 4096

// SecurityFor is Security with a memo shared across requests: masks
// computed for (user, snapshot) are reused by every concurrent evaluation
// of the same user against the same frozen document, so the axiom-14 rule
// sweep runs once per visited node per generation instead of once per
// request. Programs are already built per policy epoch, so the (user,
// epoch) keying the issue asks for falls out of (Program, user); the
// snapshot pointer invalidates the memo across document generations.
//
// vars must carry the user's own bindings only ($USER) — the memo is keyed
// by user identity, so request-specific bindings would poison it. The
// returned Security is safe for concurrent use; the EvalState is per-call.
// Matcher errors are reported through the state and never memoized.
func (pg *Program) SecurityFor(user string, vars xpath.Vars, snap *xmltree.Document) (*xpath.Security, *EvalState) {
	pg.secMu.Lock()
	if pg.secs == nil || len(pg.secs) >= secCacheCap {
		pg.secs = make(map[string]*userSec)
	}
	e := pg.secs[user]
	if e == nil || e.snap != snap {
		e = &userSec{snap: snap}
		pg.secs[user] = e
	}
	pg.secMu.Unlock()
	st := &EvalState{}
	mask := func(n *xmltree.Node) uint8 {
		if m, ok := e.memo.Load(n); ok {
			return m.(uint8)
		}
		m, err := pg.ruleMask(n, vars)
		if err != nil {
			if st.err == nil {
				st.err = err
			}
			return 0
		}
		e.memo.Store(n, m)
		return m
	}
	return secFromMask(mask), st
}
