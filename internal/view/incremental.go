// Incremental maintenance: patching a user's axiom-14 permissions after
// an XUpdate instead of re-evaluating the policy from scratch. The view
// itself needs no maintenance: it is a predicate over the source (axioms
// 15–17), rendered on demand through the permission filter
// (qfilter.ForPerms), so keeping the permissions current keeps every
// rendering of the view current.
//
// Soundness rests on the policy.NodeEvaluator eligibility gate: when every
// rule applicable to the user is chain-only (membership of a node in the
// rule's select set depends solely on the node's root-to-node labels and
// kinds), an update can change perm(s, n, r) only for nodes inside the
// subtree it touched —
//
//   - a relabel (axioms 2–5 / 18–21) changes the chain of exactly the
//     relabeled node's subtree, so only there can rule membership flip;
//   - an insert (axioms 6–7 / 22–24) introduces new chains only for the
//     inserted nodes; existing chains are untouched (sibling positions do
//     not matter — positional predicates are outside the fragment);
//   - a remove (axioms 8–9 / 25) deletes chains; surviving chains are
//     untouched.
//
// PatchPermsCtx re-runs axiom 14 over the touched subtrees of a chain of
// delta batches: Rescore recomputes their cells in a copy's overlay —
// O(delta). Removed nodes need nothing: cells are keyed by node ordinal,
// which is never reused, so a removed node's cell is never read again,
// even when its identifier is re-issued. Policy changes (a new rule can
// address any node) and non-chain-only policies fall back to a full
// Evaluate — the caller counts those fallbacks.
package view

import (
	"context"
	"fmt"

	"securexml/internal/labeling"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// Telemetry: incremental applications and their duration, distinguishable
// from full materializations on /metrics.
var (
	incStage   = obs.Stage("view_incremental")
	incApplied = obs.Default().Counter("xmlsec_view_incremental_applied_total")
)

// Maintainer patches one user's permissions in response to XUpdate
// deltas. It is tied to a (policy, hierarchy, user) triple; any policy
// change invalidates it.
type Maintainer struct {
	ne *policy.NodeEvaluator
}

// NewMaintainer compiles the per-node form of the policy for user. It
// returns (nil, false) when the policy is not chain-only for this user, in
// which case incremental maintenance would be unsound and callers must
// keep re-materializing.
func NewMaintainer(pol *policy.Policy, h *subject.Hierarchy, user string) (*Maintainer, bool) {
	ne, ok := pol.NodeEvaluator(h, user)
	if !ok {
		return nil, false
	}
	return &Maintainer{ne: ne}, true
}

// PatchPermsCtx returns a copy of pm — the relation for an earlier
// version of src — advanced over the delta chain to src's version,
// re-running axiom 14 (Rescore) over the touched subtrees only. pm itself
// is not modified; the copy is Perms.Clone, O(overlay), so the whole
// patch costs O(delta). The patch runs in a view_incremental span,
// annotated with the chain's batch and delta counts, and counts in
// xmlsec_view_incremental_applied_total when it succeeds.
func (m *Maintainer) PatchPermsCtx(ctx context.Context, src *xmltree.Document, pm *policy.Perms, chain [][]xupdate.Delta) (*policy.Perms, error) {
	_, sp := obs.StartSpanCtx(ctx, "view_incremental", incStage)
	defer sp.End()
	sp.AnnotateInt("batches", int64(len(chain)))
	deltas := 0
	for _, b := range chain {
		deltas += len(b)
	}
	sp.AnnotateInt("deltas", int64(deltas))
	out := pm.Clone()
	if err := m.rescore(src, out, chain); err != nil {
		return nil, err
	}
	incApplied.Inc()
	return out, nil
}

// rescore patches pm in place. Each touched subtree is rescored as it
// stands in src, which a later delta of the chain may
// already have changed again; that delta rescores it once more. A removal
// touches no surviving node, so it has nothing to rescore.
func (m *Maintainer) rescore(src *xmltree.Document, pm *policy.Perms, chain [][]xupdate.Delta) error {
	for _, deltas := range chain {
		for _, d := range deltas {
			if d.Kind == xupdate.DeltaRemove {
				continue
			}
			sn, err := deltaNode(src, d)
			if err != nil {
				return err
			}
			if sn == nil {
				continue
			}
			var rescoreErr error
			sn.Walk(func(n *xmltree.Node) bool {
				if err := m.ne.Rescore(pm, n); err != nil {
					rescoreErr = err
					return false
				}
				return true
			})
			if rescoreErr != nil {
				return rescoreErr
			}
		}
	}
	pm.SetDocVersion(src.Version())
	return nil
}

// deltaNode resolves a delta's node identifier in src; the node is nil
// when it is gone (removed by a later delta).
func deltaNode(src *xmltree.Document, d xupdate.Delta) (*xmltree.Node, error) {
	id, err := labeling.Parse(d.NodeID)
	if err != nil {
		return nil, fmt.Errorf("view: delta node id: %w", err)
	}
	return src.NodeByID(id), nil
}
