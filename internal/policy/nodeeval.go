package policy

import (
	"fmt"

	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// NodeEvaluator re-runs axiom 14 for a single node in O(rules × depth),
// without evaluating any rule path over the whole document. It exists for
// incremental view maintenance: after an update touches a subtree, only
// the perm cells of that subtree need recomputing.
//
// It is only constructible when every rule applicable to the user compiles
// to an xpath.NodeMatcher — i.e. membership of a node in each rule's
// select set depends solely on the node's root-to-node chain. That is the
// soundness gate: under it, an update can only change perms inside the
// subtree it touched, so Rescore over that subtree fully reconciles the
// relation (see internal/view/incremental.go).
type NodeEvaluator struct {
	user  string
	rules []nodeRule
	vars  xpath.Vars
}

// nodeRule is one applicable rule in per-node membership form.
type nodeRule struct {
	privilege Privilege
	effect    Effect
	priority  int64
	matcher   *xpath.NodeMatcher
}

// NodeEvaluator compiles the per-node form of the policy for user. It
// returns (nil, false) when any rule applicable to user (via isa) falls
// outside the matchable XPath fragment; callers then fall back to full
// Evaluate + Materialize.
func (p *Policy) NodeEvaluator(h *subject.Hierarchy, user string) (*NodeEvaluator, bool) {
	ne := &NodeEvaluator{
		user: user,
		vars: xpath.Vars{"USER": xpath.String(user)},
	}
	for _, r := range p.rules { // ascending priority, like Evaluate
		if !h.ISA(user, r.Subject) {
			continue
		}
		m, ok := r.compiled.NodeMatcher()
		if !ok {
			return nil, false
		}
		ne.rules = append(ne.rules, nodeRule{
			privilege: r.Privilege,
			effect:    r.Effect,
			priority:  r.Priority,
			matcher:   m,
		})
	}
	return ne, true
}

// User returns the subject the evaluator was compiled for.
func (ne *NodeEvaluator) User() string { return ne.user }

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
			return fmt.Errorf("policy: rescoring node %s: %w", n.ID(), err)
		}
		if !ok {
			continue
		}
		if r.priority >= cells[r.privilege].priority {
			cells[r.privilege] = permCell{priority: r.priority, effect: r.effect}
		}
	}
	pm.set(n.Ord(), cells.mask())
	return nil
}

// SetDocVersion re-stamps the document version the permissions are current
// for, after incremental maintenance brought them up to date.
func (pm *Perms) SetDocVersion(v uint64) { pm.version = v }
