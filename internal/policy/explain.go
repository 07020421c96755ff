// Decision provenance (the "explain" layer): re-deriving the axiom-14
// story behind perm(s, n, r) for individual nodes, on demand. Where
// Evaluate collapses the rule merge into a bitmask, Explain keeps the
// intermediate facts — which applicable rules addressed the node, which
// one won the priority order, and what it defeated — so a surprising
// grant or denial can be traced back to a concrete rule. Explain is a
// diagnostic path: it re-runs every applicable rule's select, costs a
// cold evaluation each call, and must never sit on the hot path.
package policy

import (
	"fmt"

	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// RuleTrace is one policy rule's role in a node's axiom-14 story.
type RuleTrace struct {
	// Index is the rule's position in the policy's ascending priority
	// order.
	Index    int    `json:"index"`
	Rule     string `json:"rule"` // paper notation: rule(effect,priv,path,subject,prio)
	Effect   string `json:"effect"`
	Priority int64  `json:"priority"`
	// Outcome is "wins" for the latest (highest-priority) rule addressing
	// the node, "defeated" for every earlier one it overrode.
	Outcome string `json:"outcome"`
}

// PrivilegeStory is the axiom-14 conflict resolution for one privilege on
// one node: every applicable rule addressing the node in priority order,
// the winner last. With no addressing rule the privilege is denied by the
// closed-world default and Winner is nil.
type PrivilegeStory struct {
	Privilege string      `json:"privilege"`
	Granted   bool        `json:"granted"`
	Winner    *RuleTrace  `json:"winner,omitempty"`
	Defeated  []RuleTrace `json:"defeated,omitempty"`
}

// NodeStory is the full per-privilege story of one node.
type NodeStory struct {
	NodeID string `json:"node_id"`
	Path   string `json:"path"`
	Label  string `json:"label"`
	Kind   string `json:"kind"`
	// Privileges holds one story per privilege, in declaration order
	// (position, read, insert, update, delete).
	Privileges []PrivilegeStory `json:"privileges"`
}

// Explain re-derives the axiom-14 merge for the given source-document
// nodes, keeping the provenance Evaluate discards. It returns one story
// per node (same order) plus the number of applicable rules. The rule
// selects run with $USER bound to user, exactly like Evaluate.
func (p *Policy) Explain(doc *xmltree.Document, h *subject.Hierarchy, user string, nodes []*xmltree.Node) ([]NodeStory, int, error) {
	vars := xpath.Vars{"USER": xpath.String(user)}
	type appRule struct {
		index int
		rule  *Rule
		set   map[string]bool
	}
	var applicable []appRule
	for i, r := range p.rules {
		if !h.ISA(user, r.Subject) {
			continue
		}
		ns, err := r.compiled.Select(doc.Root(), vars)
		if err != nil {
			return nil, 0, fmt.Errorf("policy: explaining %s: %w", r, err)
		}
		set := make(map[string]bool, len(ns))
		for _, n := range ns {
			set[n.IDString()] = true
		}
		applicable = append(applicable, appRule{index: i, rule: r, set: set})
	}
	stories := make([]NodeStory, 0, len(nodes))
	for _, n := range nodes {
		id := n.IDString()
		st := NodeStory{
			NodeID: id, Path: n.Path(), Label: n.Label(), Kind: n.Kind().String(),
			Privileges: make([]PrivilegeStory, 0, len(Privileges)),
		}
		for _, priv := range Privileges {
			ps := PrivilegeStory{Privilege: priv.String()}
			// p.rules is strictly ascending by priority (Add's invariant),
			// so the last addressing rule is the axiom-14 winner.
			var traces []RuleTrace
			for _, ar := range applicable {
				if ar.rule.Privilege != priv || !ar.set[id] {
					continue
				}
				traces = append(traces, RuleTrace{
					Index:    ar.index,
					Rule:     ar.rule.String(),
					Effect:   ar.rule.Effect.String(),
					Priority: ar.rule.Priority,
					Outcome:  "defeated",
				})
			}
			if len(traces) > 0 {
				w := traces[len(traces)-1]
				w.Outcome = "wins"
				ps.Winner = &w
				ps.Defeated = traces[:len(traces)-1]
				ps.Granted = w.Effect == Accept.String()
			}
			st.Privileges = append(st.Privileges, ps)
		}
		stories = append(stories, st)
	}
	return stories, len(applicable), nil
}

// CellOrigin reports where the production cell for node id lives in this
// permission object: "overlay" (a $USER-dependent patch private to the
// user), "shared-profile" (the RuleCache's profile mask shared across
// every user of the same role signature), or "private" (an unshared map
// from Evaluate or a copied-on-write mutation).
func (pm *Perms) CellOrigin(id string) string {
	if _, ok := pm.overlay[id]; ok {
		return "overlay"
	}
	if pm.shared {
		return "shared-profile"
	}
	return "private"
}

// PeekID reports perm(user, id, priv) like HasID but without counting a
// decision: the explain layer reads cells for introspection, and a
// diagnostic call must not inflate the enforcement counters.
func (pm *Perms) PeekID(id string, priv Privilege) bool {
	mask, inOverlay := pm.overlay[id]
	if !inOverlay {
		mask = pm.grants[id]
	}
	return mask&(1<<uint(priv)) != 0
}
