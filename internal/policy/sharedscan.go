// Shared-scan policy evaluation: the cold path of axiom 14 computed with
// as little repeated work as possible across rules, users and sessions.
//
// Evaluate (policy.go) is the reference implementation: one full-document
// XPath evaluation per applicable rule, per user — O(users × rules ×
// nodes) with nothing shared. EvaluateShared keeps its semantics (the
// differential oracle in sharedscan_test.go pins them cell-for-cell) while
// removing the repetition on three axes:
//
//   - across rules: when enough rules compile to the chain-only
//     xpath.NodeMatcher fragment, all of them are evaluated in one
//     xpath.Bank walk — a single document traversal advances every rule's
//     NFA together (YFilter-style multi-query evaluation). Rules outside
//     the fragment, or too few to amortize a full walk, run a per-rule
//     Select.
//   - across users: rules whose paths do not reference $USER select the
//     same node set for every user, so their node sets are computed once
//     per (document snapshot, policy) and cached in a RuleCache shared by
//     every session.
//   - across roles: two users with the same applicable $USER-independent
//     rule set (same roles) get identical merge results, so the cache also
//     keeps the merged permission state per rule-set profile — a second
//     secretary clones the first one's result instead of re-running the
//     priority merge.
//
// Inside the cache, nodes are dense document-order indices, so the merge
// is array arithmetic; node-ID strings appear only in the final grants
// projection (the Perms API is string-keyed). The priority merge is
// identical to Evaluate's latest-wins scan and relies on the same
// strictly-ascending rule order that Policy.Add enforces.
package policy

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"sync"

	"securexml/internal/obs"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Telemetry: how many rule evaluations went through the shared bank walk
// vs the per-rule fallback, and how often a user's cold evaluation was
// served $USER-independent work from the shared cache instead of
// recomputing it.
var (
	evalSharedStage = obs.Stage("policy_evaluate_shared")
	bankRuleCount   = obs.Default().Counter("xmlsec_policy_sharedscan_bank_rules_total")
	fallbackRules   = obs.Default().Counter("xmlsec_policy_sharedscan_fallback_rules_total")
	ruleCacheHits   = obs.Default().Counter("xmlsec_policy_rulecache_hits_total")
	ruleCacheMisses = obs.Default().Counter("xmlsec_policy_rulecache_misses_total")
)

// bankMinRules is the break-even point for the shared walk: a Bank always
// traverses the whole document, while Select follows the path's axes and
// touches only the relevant subtrees — so banking one or two rules loses
// to running their Selects directly.
const bankMinRules = 3

// permCell is one privilege's current winner during the axiom-14 merge:
// the highest applicable priority seen so far and its effect.
type permCell struct {
	priority int64
	effect   Effect
}

// permCells is the full per-node merge state.
type permCells [numPrivileges]permCell

// RuleCache holds the shareable parts of cold evaluation for one policy
// over one document snapshot: the dense node index, the node set of every
// $USER-independent rule evaluated so far, and the merged permission
// state per rule-set profile (one profile per distinct set of applicable
// $USER-independent rules — in practice, one per role combination).
// Callers key a cache instance by (document generation, document version,
// policy epoch) and hand out a fresh cache when any of them moves; the
// cache also remembers which (policy, document, version) filled it and
// silently resets on mismatch, so a stale hand-off degrades to a
// recompute instead of wrong permissions.
//
// A RuleCache is safe for concurrent use. The first evaluation fills each
// piece under the cache lock — concurrent cold users block until the fill
// completes and then share the result, so N simultaneous cold starts cost
// one document scan, not N.
type RuleCache struct {
	mu      sync.Mutex
	policy  *Policy
	doc     *xmltree.Document
	version uint64

	// Dense snapshot index, guarded by mu: nodes in document order, their
	// ID strings, and the reverse pointer→index map used to intern rule
	// node sets.
	nodes []*xmltree.Node
	ids   []string
	index map[*xmltree.Node]int32

	// sets holds each $USER-independent rule's dense node set, guarded by
	// mu like the rest of the cache state below.
	sets map[*Rule][]int32
	// grants holds, per profile, the final grant masks of users whose
	// applicable rules are all $USER-independent; latest holds the dense
	// pre-projection merge state for profiles that $USER-dependent rules
	// still need to be merged over.
	grants map[string]map[string]uint8
	latest map[string][]permCells
}

// NewRuleCache returns an empty cache.
func NewRuleCache() *RuleCache { return &RuleCache{} }

// ensure resets the cache when it was filled for a different policy,
// document or version, and (re)builds the dense node index. Callers hold
// c.mu.
func (c *RuleCache) ensure(p *Policy, doc *xmltree.Document) {
	if c.policy == p && c.doc == doc && c.version == doc.Version() {
		return
	}
	c.policy, c.doc, c.version = p, doc, doc.Version()
	c.nodes = doc.Nodes()
	c.ids = make([]string, len(c.nodes))
	c.index = make(map[*xmltree.Node]int32, len(c.nodes))
	for i, n := range c.nodes {
		c.ids[i] = n.IDString()
		c.index[n] = int32(i)
	}
	c.sets = make(map[*Rule][]int32)
	c.grants = make(map[string]map[string]uint8)
	c.latest = make(map[string][]permCells)
}

// intern converts a node set to dense indices. Callers hold c.mu.
func (c *RuleCache) intern(ns []*xmltree.Node) []int32 {
	out := make([]int32, len(ns))
	for i, n := range ns {
		out[i] = c.index[n]
	}
	return out
}

// fill returns the dense node sets of the given $USER-independent rules,
// computing only the ones no earlier evaluation has cached yet — a
// homogeneous fleet (say, thousands of patients) never pays for staff
// rules it will not merge. Missing rules are still computed together, so
// the chain-only ones share one bank walk. The returned map is the live
// cache — callers must clone before mutating. Callers hold c.mu.
func (c *RuleCache) fill(ctx context.Context, p *Policy, doc *xmltree.Document, indep []*Rule) (map[*Rule][]int32, error) {
	var missing []*Rule
	for _, r := range indep {
		if _, ok := c.sets[r]; !ok {
			missing = append(missing, r)
		}
	}
	ruleCacheHits.Add(uint64(len(indep) - len(missing)))
	obs.AnnotateIntCtx(ctx, "rulecache_hit_rules", int64(len(indep)-len(missing)))
	if len(missing) == 0 {
		return c.sets, nil
	}
	ruleCacheMisses.Add(uint64(len(missing)))
	fctx, fsp := obs.StartSpanCtx(ctx, "rulecache_fill", nil)
	fsp.AnnotateInt("rules", int64(len(missing)))
	sets, err := scanSets(fctx, missing, doc, nil)
	fsp.End()
	if err != nil {
		return nil, err
	}
	for r, ns := range sets {
		c.sets[r] = c.intern(ns)
	}
	return c.sets, nil
}

// latestFor returns the dense merged permission state of a profile (an
// ascending list of applicable $USER-independent rules), computing and
// caching it on first use. The returned slice is shared — callers must
// clone before mutating. Callers hold c.mu.
func (c *RuleCache) latestFor(ctx context.Context, p *Policy, doc *xmltree.Document, sig string, indep []*Rule) ([]permCells, error) {
	if m, ok := c.latest[sig]; ok {
		ruleCacheHits.Add(uint64(len(indep)))
		obs.AnnotateCtx(ctx, "profile_latest", "hit")
		return m, nil
	}
	obs.AnnotateCtx(ctx, "profile_latest", "miss")
	sets, err := c.fill(ctx, p, doc, indep)
	if err != nil {
		return nil, err
	}
	m := make([]permCells, len(c.nodes))
	for _, r := range indep { // ascending priority: later rules overwrite
		for _, idx := range sets[r] {
			if cell := &m[idx][r.Privilege]; r.Priority >= cell.priority {
				*cell = permCell{priority: r.Priority, effect: r.Effect}
			}
		}
	}
	c.latest[sig] = m
	return m, nil
}

// grantsFor returns the final grant masks of an all-independent profile,
// projecting and caching them on first use. The returned map is shared —
// callers must clone. Callers hold c.mu.
func (c *RuleCache) grantsFor(ctx context.Context, p *Policy, doc *xmltree.Document, sig string, indep []*Rule) (map[string]uint8, error) {
	if g, ok := c.grants[sig]; ok {
		ruleCacheHits.Add(uint64(len(indep)))
		obs.AnnotateCtx(ctx, "profile_grants", "hit")
		return g, nil
	}
	obs.AnnotateCtx(ctx, "profile_grants", "miss")
	latest, err := c.latestFor(ctx, p, doc, sig, indep)
	if err != nil {
		return nil, err
	}
	g := c.projectGrants(latest)
	c.grants[sig] = g
	return g, nil
}

// mask collapses one node's merge state into its grant bitmask: per
// privilege, the winning effect, kept only when it accepts (closed world).
func (cs *permCells) mask() uint8 {
	var mask uint8
	for _, priv := range Privileges {
		if cs[priv].priority > 0 && cs[priv].effect == Accept {
			mask |= 1 << uint(priv)
		}
	}
	return mask
}

// projectGrants collapses dense merge state into the grant-mask form Perms
// serves, keeping only nodes with at least one accepted privilege.
// Callers hold c.mu.
func (c *RuleCache) projectGrants(latest []permCells) map[string]uint8 {
	g := make(map[string]uint8, len(latest))
	for idx := range latest {
		if mask := latest[idx].mask(); mask != 0 {
			g[c.ids[idx]] = mask
		}
	}
	return g
}

// mutable gives pm a private grants map if the current one is shared with
// a RuleCache (and, through it, other sessions). Evaluation hands the
// cached map out directly — most permission objects are only ever read —
// and the incremental-maintenance mutators (Rescore, Forget) call this
// before their first write, flattening any $USER overlay into the copy.
func (pm *Perms) mutable() {
	if !pm.shared {
		return
	}
	g := maps.Clone(pm.grants)
	for id, mask := range pm.overlay {
		if mask == 0 {
			delete(g, id)
		} else {
			g[id] = mask
		}
	}
	pm.grants, pm.overlay, pm.shared = g, nil, false
}

// EvaluateShared computes the same perm relation as Evaluate — the
// differential oracle keeps them interchangeable — through the shared-scan
// pipeline: cached $USER-independent rule sets and per-profile merges
// (computed in one bank walk and one merge for the first user of a role
// combination), a per-user scan of only the $USER-dependent rules, then
// the axiom-14 latest-wins merge of the dependent sets over a clone of
// the cached state.
//
// cache may be nil, in which case nothing is reused across calls but rules
// still share document walks within this call.
func (p *Policy) EvaluateShared(doc *xmltree.Document, h *subject.Hierarchy, user string, cache *RuleCache) (*Perms, error) {
	return p.EvaluateSharedCtx(context.Background(), doc, h, user, cache)
}

// EvaluateSharedCtx is EvaluateShared with request-scoped tracing: under
// an active trace it records a policy_evaluate_shared span with child
// spans for the bank walk / per-rule fallback and the RuleCache fill, and
// annotations for profile hit/miss and the $USER overlay size.
func (p *Policy) EvaluateSharedCtx(ctx context.Context, doc *xmltree.Document, h *subject.Hierarchy, user string, cache *RuleCache) (*Perms, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "policy_evaluate_shared", evalSharedStage)
	defer sp.End()
	pm := &Perms{user: user, version: doc.Version()}
	var indep, dep []*Rule
	sig := make([]byte, 0, 64)
	for i, r := range p.rules {
		if !h.ISA(user, r.Subject) {
			continue
		}
		if r.usesUser {
			dep = append(dep, r)
		} else {
			indep = append(indep, r)
			sig = strconv.AppendInt(sig, int64(i), 10)
			sig = append(sig, ',')
		}
	}
	sp.AnnotateInt("rules_indep", int64(len(indep)))
	sp.AnnotateInt("rules_dep", int64(len(dep)))
	// $USER-dependent sets are per-user work; scan them outside the cache
	// lock so concurrent warm-ups only serialize on genuinely shared state.
	depSets, err := scanSets(ctx, dep, doc, xpath.Vars{"USER": xpath.String(user)})
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewRuleCache()
	}
	cache.mu.Lock()
	cache.ensure(p, doc)
	if len(dep) == 0 {
		g, err := cache.grantsFor(ctx, p, doc, string(sig), indep)
		cache.mu.Unlock()
		if err != nil {
			return nil, err
		}
		// Hand the cached map out directly; mutators copy-on-write.
		pm.grants, pm.shared = g, true
		return pm, nil
	}
	// A $USER-dependent user starts from the cached state of its
	// $USER-independent profile and patches only the nodes its dependent
	// rules touch — typically a handful (the user's own subtree) out of
	// the whole document.
	base, err := cache.latestFor(ctx, p, doc, string(sig), indep)
	if err != nil {
		cache.mu.Unlock()
		return nil, err
	}
	g, err := cache.grantsFor(ctx, p, doc, string(sig), indep)
	if err != nil {
		cache.mu.Unlock()
		return nil, err
	}
	ids := cache.ids
	depIdx := make(map[*Rule][]int32, len(dep))
	for r, ns := range depSets {
		depIdx[r] = cache.intern(ns)
	}
	cache.mu.Unlock()
	// base, g and ids are shared snapshots: read-only from here on.
	touched := make(map[int32]permCells)
	for _, r := range dep { // ascending priority, same merge as Evaluate
		for _, idx := range depIdx[r] {
			cells, ok := touched[idx]
			if !ok {
				cells = base[idx]
			}
			if cell := &cells[r.Privilege]; r.Priority >= cell.priority {
				*cell = permCell{priority: r.Priority, effect: r.Effect}
			}
			touched[idx] = cells
		}
	}
	overlay := make(map[string]uint8, len(touched))
	for idx, cells := range touched {
		overlay[ids[idx]] = cells.mask()
	}
	sp.AnnotateInt("overlay_nodes", int64(len(overlay)))
	pm.grants, pm.overlay, pm.shared = g, overlay, true
	return pm, nil
}

// scanSets evaluates the given rules' node sets in as few document
// traversals as possible: chain-only rules share one Bank walk when there
// are at least bankMinRules of them, everything else runs a per-rule
// Select.
func scanSets(ctx context.Context, rules []*Rule, doc *xmltree.Document, vars xpath.Vars) (map[*Rule][]*xmltree.Node, error) {
	out := make(map[*Rule][]*xmltree.Node, len(rules))
	var banked []*Rule
	for _, r := range rules {
		if r.matcher != nil {
			banked = append(banked, r)
		}
	}
	if len(banked) < bankMinRules {
		banked = nil
	}
	var ms []*xpath.NodeMatcher
	for _, r := range banked {
		ms = append(ms, r.matcher)
	}
	if nFall := len(rules) - len(banked); nFall > 0 {
		_, fsp := obs.StartSpanCtx(ctx, "policy_rule_select", nil)
		fsp.AnnotateInt("rules", int64(nFall))
		for _, r := range rules {
			if len(banked) > 0 && r.matcher != nil {
				continue
			}
			fallbackRules.Inc()
			ruleEvals.Inc()
			ns, err := r.compiled.Select(doc.Root(), vars)
			if err != nil {
				fsp.End()
				return nil, fmt.Errorf("policy: evaluating %s: %w", r, err)
			}
			out[r] = ns
		}
		fsp.End()
	}
	if len(ms) > 0 {
		_, bsp := obs.StartSpanCtx(ctx, "policy_bank_walk", nil)
		bsp.AnnotateInt("rules", int64(len(banked)))
		sets, err := xpath.NewBank(ms).Select(doc, vars)
		bsp.End()
		if err != nil {
			return nil, fmt.Errorf("policy: shared scan: %w", err)
		}
		for i, r := range banked {
			bankRuleCount.Inc()
			ruleEvals.Inc()
			out[r] = sets[i]
		}
	}
	return out, nil
}
