// Incremental maintenance: patching a user's axiom-14 permissions after
// an XUpdate instead of re-evaluating the policy from scratch. The view
// itself needs no maintenance: it is a predicate over the source (axioms
// 15–17), rendered on demand through the permission filter
// (qfilter.ForPerms), so keeping the permissions current keeps every
// rendering of the view current.
//
// Soundness rests on the NodeEvaluator eligibility gate: when every rule
// applicable to the user is chain-only (membership of a node in the rule's
// select set depends solely on the node's root-to-node labels and kinds),
// an update can change perm(s, n, r) only for nodes inside the subtree it
// touched —
//
//   - a relabel (axioms 2–5 / 18–21) changes the chain of exactly the
//     relabeled node's subtree, so only there can rule membership flip;
//   - an insert (axioms 6–7 / 22–24) introduces new chains only for the
//     inserted nodes; existing chains are untouched (sibling positions do
//     not matter — positional predicates are outside the fragment);
//   - a remove (axioms 8–9 / 25) deletes chains; surviving chains are
//     untouched.
//
// So the executors log only the roots of the subtrees they relabeled or
// inserted (xupdate.Result.Touched), and PatchCtx re-runs axiom 14 over
// those subtrees as they stand in the current document — O(delta).
// Removed nodes need nothing: cells are keyed by node ordinal, which is
// never reused, so a removed node's cell is never read again, even when
// its identifier is re-issued. Policy changes (a new rule can address any
// node) and non-chain-only policies fall back to a full evaluation — the
// caller counts those fallbacks.
package policy

import (
	"context"
	"fmt"

	"securexml/internal/obs"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Telemetry: incremental applications and their duration, distinguishable
// from full evaluations on /metrics.
var (
	incStage   = obs.Stage("view_incremental")
	incApplied = obs.Default().Counter("xmlsec_view_incremental_applied_total")
)

// NodeEvaluator re-runs axiom 14 for a single node in O(rules × depth),
// without evaluating any rule path over the whole document. It is tied to
// one (policy, hierarchy, user) triple; any policy change invalidates it.
//
// It is only constructible when every rule applicable to the user compiles
// to an xpath.NodeMatcher — the soundness gate of PatchCtx.
type NodeEvaluator struct {
	rules []*Rule
	vars  xpath.Vars
}

// NodeEvaluator collects the per-node form of the policy for user. It
// returns (nil, false) when any rule applicable to user (via isa) falls
// outside the matchable XPath fragment; callers then fall back to a full
// evaluation.
func (p *Policy) NodeEvaluator(h *subject.Hierarchy, user string) (*NodeEvaluator, bool) {
	ne := &NodeEvaluator{vars: xpath.Vars{"USER": xpath.String(user)}}
	for _, r := range p.rules { // ascending priority, like Evaluate
		if !h.ISA(user, r.Subject) {
			continue
		}
		if r.matcher == nil {
			return nil, false
		}
		ne.rules = append(ne.rules, r)
	}
	return ne, true
}

// Rescore recomputes pm's grant mask for the single node n, replacing
// whatever Evaluate (or a previous Rescore) stored; the cell goes to pm's
// overlay, never to its base map. The conflict resolution is identical to
// Evaluate's: per privilege, the applicable rule with the greatest
// priority wins, and only an accept grants.
func (ne *NodeEvaluator) Rescore(pm *Perms, n *xmltree.Node) error {
	var cells permCells
	// Every rule reads the same root-to-node chain; build it once.
	var buf [16]*xmltree.Node
	chain := xpath.AppendChain(buf[:0], n)
	for _, r := range ne.rules { // ascending priority: later rules overwrite
		ok, err := r.matcher.MatchChain(chain, ne.vars)
		ruleEvals.Inc()
		if err != nil {
			return fmt.Errorf("policy: rescoring node %s: %w", n.IDString(), err)
		}
		if !ok {
			continue
		}
		if r.Priority >= cells[r.Privilege].priority {
			cells[r.Privilege] = permCell{priority: r.Priority, effect: r.Effect}
		}
	}
	pm.set(n.Ord(), cells.mask())
	return nil
}

// PatchCtx returns a copy of pm — the relation for an earlier version of
// doc — advanced to doc's version over chain, the batches of touched
// subtree roots (identifier texts) logged since. Each root's subtree is
// rescored as it stands in doc; a root that is gone (removed later) is
// skipped, and one touched again later is simply rescored again. pm itself
// is not modified; the copy is Perms.Clone, O(overlay), so the whole patch
// costs O(delta). The patch runs in a view_incremental span, annotated
// with the chain's batch and root counts, and counts in
// xmlsec_view_incremental_applied_total when it succeeds.
func (ne *NodeEvaluator) PatchCtx(ctx context.Context, doc *xmltree.Document, pm *Perms, chain [][]string) (*Perms, error) {
	_, sp := obs.StartSpanCtx(ctx, "view_incremental", incStage)
	defer sp.End()
	sp.AnnotateInt("batches", int64(len(chain)))
	out := pm.Clone()
	roots := 0
	for _, batch := range chain {
		roots += len(batch)
		for _, id := range batch {
			sn := doc.NodeByID(id)
			if sn == nil {
				continue
			}
			var err error
			sn.Walk(func(n *xmltree.Node) bool {
				err = ne.Rescore(out, n)
				return err == nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	sp.AnnotateInt("roots", int64(roots))
	incApplied.Inc()
	return out, nil
}
