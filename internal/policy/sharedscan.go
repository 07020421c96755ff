// Shared-scan policy evaluation: the cold path of axiom 14 computed with
// as little repeated work as possible across users and sessions.
//
// Evaluate (policy.go) is the reference implementation: one full-document
// XPath evaluation per applicable rule, per user — O(users × rules ×
// nodes) with nothing shared. EvaluateShared keeps its semantics (the
// differential oracle in sharedscan_test.go pins them cell-for-cell) while
// removing the repetition on two axes — every rule's node set is still one
// XPath Select over the document:
//
//   - across users: rules whose paths do not reference $USER select the
//     same node set for every user, so their node sets are computed once
//     per (document snapshot, policy) and cached in a RuleCache shared by
//     every session.
//   - across roles: two users with the same applicable $USER-independent
//     rule set (same roles) get identical merge results, so the cache also
//     keeps the merged permission state per rule-set profile — a second
//     secretary shares the first one's result instead of re-running the
//     priority merge.
//
// Inside the cache, nodes are their ordinals (xmltree.Node.Ord), the same
// key Perms cells use, so the merge is array arithmetic and the projected
// grants are the Perms base itself. The priority merge is
// identical to Evaluate's latest-wins scan and relies on the same
// strictly-ascending rule order that Policy.Add enforces.
package policy

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"securexml/internal/obs"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Telemetry: how often a user's cold evaluation was served
// $USER-independent work from the shared cache instead of recomputing it.
var (
	evalSharedStage = obs.Stage("policy_evaluate_shared")
	ruleCacheHits   = obs.Default().Counter("xmlsec_policy_rulecache_hits_total")
	ruleCacheMisses = obs.Default().Counter("xmlsec_policy_rulecache_misses_total")
)

// permCell is one privilege's current winner during the axiom-14 merge:
// the highest applicable priority seen so far and its effect.
type permCell struct {
	priority int64
	effect   Effect
}

// permCells is the full per-node merge state.
type permCells [numPrivileges]permCell

// RuleCache holds the shareable parts of cold evaluation for one policy
// over one frozen document snapshot: the node set of every
// $USER-independent rule evaluated so far, and one profile per distinct
// set of applicable $USER-independent rules (in practice, one per role
// combination). A cache is bound to its policy and document at
// construction; callers key an instance by (document generation, document
// version, policy epoch) and build a new one when any of them moves.
//
// A RuleCache is safe for concurrent use. A profile is built under the
// cache lock, so concurrent cold users of one profile block until the
// first one's build completes and then share it: N simultaneous cold
// starts cost one document scan, not N.
type RuleCache struct {
	// policy and doc are fixed at construction and read-only afterwards.
	policy *Policy
	doc    *xmltree.Document

	mu sync.Mutex
	// sets holds each $USER-independent rule's node set as ordinals;
	// profiles holds the built profiles by signature. Only profileFor
	// touches either, with mu held.
	sets     map[*Rule][]uint32
	profiles map[string]*profile
}

// profile is the merged evaluation of one set of applicable
// $USER-independent rules. It is built once by profileFor and never
// written afterwards, so every session of the profile reads it without a
// lock: latest is the pre-projection merge state that $USER-dependent
// rules are merged over, and grants its projection to grant masks, the
// base every Perms of the profile shares. Both are indexed by ordinal.
type profile struct {
	latest []permCells
	grants []uint8
}

// NewRuleCache returns an empty cache for policy p over document doc. doc
// must not change while the cache is in use.
func NewRuleCache(p *Policy, doc *xmltree.Document) *RuleCache {
	return &RuleCache{
		policy:   p,
		doc:      doc,
		sets:     make(map[*Rule][]uint32),
		profiles: make(map[string]*profile),
	}
}

// ords converts a node set to ordinals.
func ords(ns []*xmltree.Node) []uint32 {
	out := make([]uint32, len(ns))
	for i, n := range ns {
		out[i] = n.Ord()
	}
	return out
}

// profileFor returns the profile of sig, an ascending list of applicable
// $USER-independent rules, building it on first use. A build scans only
// the rules no earlier profile has scanned — a homogeneous fleet (say,
// thousands of patients) never pays for staff rules it will not merge.
// Each rule of indep counts once per call in the cache telemetry: a hit
// when its node set was already cached, a miss when this call scanned it.
func (c *RuleCache) profileFor(ctx context.Context, sig string, indep []*Rule) (*profile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pf, ok := c.profiles[sig]; ok {
		ruleCacheHits.Add(uint64(len(indep)))
		obs.AnnotateCtx(ctx, "profile", "hit")
		return pf, nil
	}
	obs.AnnotateCtx(ctx, "profile", "miss")
	var missing []*Rule
	for _, r := range indep {
		if _, ok := c.sets[r]; !ok {
			missing = append(missing, r)
		}
	}
	ruleCacheHits.Add(uint64(len(indep) - len(missing)))
	ruleCacheMisses.Add(uint64(len(missing)))
	obs.AnnotateIntCtx(ctx, "rulecache_hit_rules", int64(len(indep)-len(missing)))
	if len(missing) > 0 {
		_, fsp := obs.StartSpanCtx(ctx, "rulecache_fill", nil)
		fsp.AnnotateInt("rules", int64(len(missing)))
		sets, err := scanSets(missing, c.doc, nil)
		fsp.End()
		if err != nil {
			return nil, err
		}
		for r, ns := range sets {
			c.sets[r] = ords(ns)
		}
	}
	latest := make([]permCells, c.doc.OrdLimit())
	for _, r := range indep { // ascending priority: later rules overwrite
		for _, ord := range c.sets[r] {
			if cell := &latest[ord][r.Privilege]; r.Priority >= cell.priority {
				*cell = permCell{priority: r.Priority, effect: r.Effect}
			}
		}
	}
	pf := &profile{latest: latest, grants: projectGrants(latest)}
	c.profiles[sig] = pf
	return pf, nil
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

// projectGrants collapses merge state into the grant masks Perms serves,
// one per ordinal.
func projectGrants(latest []permCells) []uint8 {
	g := make([]uint8, len(latest))
	for ord := range latest {
		g[ord] = latest[ord].mask()
	}
	return g
}

// EvaluateShared computes the same perm relation as the cache's
// Policy.Evaluate over the cache's document — the differential oracle
// keeps them interchangeable — through the shared-scan pipeline: cached
// $USER-independent rule sets and per-profile merges (computed once, for
// the first user of a role combination), a per-user scan of only the
// $USER-dependent rules, then the axiom-14 latest-wins merge of the
// dependent sets over the profile's merge state into a private overlay.
func (c *RuleCache) EvaluateShared(h *subject.Hierarchy, user string) (*Perms, error) {
	return c.EvaluateSharedCtx(context.Background(), h, user)
}

// EvaluateSharedCtx is EvaluateShared with request-scoped tracing: under
// an active trace it records a policy_evaluate_shared span with a child
// span for the RuleCache fill, and annotations for profile hit/miss and
// the $USER overlay size.
func (c *RuleCache) EvaluateSharedCtx(ctx context.Context, h *subject.Hierarchy, user string) (*Perms, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "policy_evaluate_shared", evalSharedStage)
	defer sp.End()
	pm := &Perms{user: user}
	var indep, dep []*Rule
	sig := make([]byte, 0, 64)
	for i, r := range c.policy.rules {
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
	depSets, err := scanSets(dep, c.doc, xpath.Vars{"USER": xpath.String(user)})
	if err != nil {
		return nil, err
	}
	pf, err := c.profileFor(ctx, string(sig), indep)
	if err != nil {
		return nil, err
	}
	if len(dep) == 0 {
		// Hand the profile's base out directly; patches go to the overlay.
		pm.grants, pm.shared = pf.grants, true
		return pm, nil
	}
	// A $USER-dependent user starts from its profile's merge state and
	// patches only the nodes its dependent rules touch — typically a
	// handful (the user's own subtree) out of the whole document.
	touched := make(map[uint32]permCells)
	for _, r := range dep { // ascending priority, same merge as Evaluate
		for _, n := range depSets[r] {
			ord := n.Ord()
			cells, ok := touched[ord]
			if !ok {
				cells = pf.latest[ord]
			}
			if cell := &cells[r.Privilege]; r.Priority >= cell.priority {
				*cell = permCell{priority: r.Priority, effect: r.Effect}
			}
			touched[ord] = cells
		}
	}
	overlay := make(map[uint32]uint8, len(touched))
	for ord, cells := range touched {
		overlay[ord] = cells.mask()
	}
	sp.AnnotateInt("overlay_nodes", int64(len(overlay)))
	pm.grants, pm.overlay, pm.shared = pf.grants, overlay, true
	return pm, nil
}

// scanSets evaluates the given rules' node sets, one Select per rule.
func scanSets(rules []*Rule, doc *xmltree.Document, vars xpath.Vars) (map[*Rule][]*xmltree.Node, error) {
	out := make(map[*Rule][]*xmltree.Node, len(rules))
	for _, r := range rules {
		ruleEvals.Inc()
		ns, err := r.compiled.Select(doc.Root(), vars)
		if err != nil {
			return nil, fmt.Errorf("policy: evaluating %s: %w", r, err)
		}
		out[r] = ns
	}
	return out, nil
}
