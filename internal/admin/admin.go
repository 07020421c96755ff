// Package admin implements the security administration model the paper
// omits for space (§4.3: "we cannot state the policy constraining the
// management of users, roles and security rules... nor any kind of
// delegation mechanism, whereas in [10] we included the privilege to
// transfer privileges"). It restores that capability in the spirit of
// [10] and of SQL's GRANT OPTION:
//
//   - a designated owner holds full administrative authority;
//   - authority over (privilege, scope) can be delegated, optionally with
//     the right to delegate further (WithGrant);
//   - a subject may issue a policy rule only if their authority covers the
//     rule: same privilege, and the rule's addressed node set is contained
//     in the delegated scope (evaluated on the current document);
//   - revoking a delegation cascades: delegations that are no longer
//     justified by a valid chain back to the owner are dropped, exactly
//     like SQL's REVOKE ... CASCADE.
package admin

import (
	"errors"
	"fmt"

	"securexml/internal/policy"
	"securexml/internal/policyanalysis"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Errors returned by administrative checks.
var (
	ErrNotAuthorized  = errors.New("admin: subject lacks administrative authority")
	ErrUnknownSubject = errors.New("admin: unknown subject")
)

// Delegation is one grant of administrative authority.
type Delegation struct {
	// Grantor issued the delegation.
	Grantor string
	// Grantee receives authority.
	Grantee string
	// Privilege the authority covers.
	Privilege policy.Privilege
	// Scope is an XPath expression; the grantee may administer Privilege
	// on nodes addressed by Scope (and any rule whose addressed nodes are
	// contained in it).
	Scope string
	// WithGrant allows the grantee to delegate further.
	WithGrant bool
}

// String renders the delegation.
func (d Delegation) String() string {
	wg := ""
	if d.WithGrant {
		wg = " with grant option"
	}
	return fmt.Sprintf("delegate(%s -> %s, %s on %s%s)", d.Grantor, d.Grantee, d.Privilege, d.Scope, wg)
}

// Authority tracks the delegation graph rooted at the owner.
type Authority struct {
	owner       string
	delegations []Delegation
}

// New creates an authority with the given owner. The owner implicitly
// holds every administrative right and cannot be revoked.
func New(owner string) *Authority {
	return &Authority{owner: owner}
}

// Owner returns the owning subject.
func (a *Authority) Owner() string { return a.owner }

// Delegations returns a snapshot of the current (valid) delegations.
func (a *Authority) Delegations() []Delegation {
	return append([]Delegation(nil), a.delegations...)
}

// nodesOf evaluates an XPath scope on the document with $USER bound to the
// evaluating subject, returning the addressed node identifiers.
func nodesOf(doc *xmltree.Document, path, user string) (map[string]bool, error) {
	c, err := xpath.Compile(path)
	if err != nil {
		return nil, fmt.Errorf("admin: scope path: %w", err)
	}
	ns, err := c.Select(doc.Root(), xpath.Vars{"USER": xpath.String(user)})
	if err != nil {
		return nil, fmt.Errorf("admin: evaluating scope: %w", err)
	}
	out := make(map[string]bool, len(ns))
	for _, n := range ns {
		out[n.IDString()] = true
	}
	return out, nil
}

// covers reports whether sub ⊆ super.
func covers(super, sub map[string]bool) bool {
	for id := range sub {
		if !super[id] {
			return false
		}
	}
	return true
}

// authorityScopes returns the scopes (as node-id sets) under which s holds
// authority for priv: the owner's is universal (nil sentinel), everyone
// else's is the union of valid delegations to any subject s' with
// isa(s, s'). needGrant restricts to delegations carrying WithGrant.
func (a *Authority) authorityScopes(doc *xmltree.Document, h *subject.Hierarchy, s string, priv policy.Privilege, needGrant bool) ([]map[string]bool, bool, error) {
	if s == a.owner {
		return nil, true, nil // universal authority
	}
	var scopes []map[string]bool
	for _, d := range a.delegations {
		if d.Privilege != priv {
			continue
		}
		if needGrant && !d.WithGrant {
			continue
		}
		if !h.ISA(s, d.Grantee) {
			continue
		}
		set, err := nodesOf(doc, d.Scope, s)
		if err != nil {
			return nil, false, err
		}
		scopes = append(scopes, set)
	}
	return scopes, false, nil
}

// coveredByAny reports whether target is contained in at least one scope.
func coveredByAny(scopes []map[string]bool, target map[string]bool) bool {
	for _, s := range scopes {
		if covers(s, target) {
			return true
		}
	}
	return false
}

// CanIssue reports whether subject s may issue a rule for priv on rulePath:
// s is the owner, or some valid delegation to s (or a role of s) covers the
// rule's addressed node set.
func (a *Authority) CanIssue(doc *xmltree.Document, h *subject.Hierarchy, s string, priv policy.Privilege, rulePath string) (bool, error) {
	if !h.Exists(s) {
		return false, fmt.Errorf("%w: %q", ErrUnknownSubject, s)
	}
	scopes, universal, err := a.authorityScopes(doc, h, s, priv, false)
	if err != nil {
		return false, err
	}
	if universal {
		return true, nil
	}
	target, err := nodesOf(doc, rulePath, s)
	if err != nil {
		return false, err
	}
	return coveredByAny(scopes, target), nil
}

// Delegate records a new delegation after checking the grantor's authority:
// the grantor must be the owner or hold a WithGrant delegation covering the
// new delegation's scope for the same privilege.
func (a *Authority) Delegate(doc *xmltree.Document, h *subject.Hierarchy, d Delegation) error {
	if !h.Exists(d.Grantor) {
		return fmt.Errorf("%w: grantor %q", ErrUnknownSubject, d.Grantor)
	}
	if !h.Exists(d.Grantee) {
		return fmt.Errorf("%w: grantee %q", ErrUnknownSubject, d.Grantee)
	}
	scopes, universal, err := a.authorityScopes(doc, h, d.Grantor, d.Privilege, true)
	if err != nil {
		return err
	}
	if !universal {
		target, err := nodesOf(doc, d.Scope, d.Grantor)
		if err != nil {
			return err
		}
		if !coveredByAny(scopes, target) {
			return fmt.Errorf("%w: %s cannot delegate %s on %s", ErrNotAuthorized, d.Grantor, d.Privilege, d.Scope)
		}
	} else if _, err := nodesOf(doc, d.Scope, d.Grantor); err != nil {
		return err // validate the scope path even for the owner
	}
	a.delegations = append(a.delegations, d)
	return nil
}

// Revoke removes the delegations from grantor to grantee for priv and then
// prunes every delegation no longer reachable from the owner through valid
// WithGrant chains (cascading revocation).
func (a *Authority) Revoke(doc *xmltree.Document, h *subject.Hierarchy, grantor, grantee string, priv policy.Privilege) (removed int, err error) {
	kept := a.delegations[:0]
	for _, d := range a.delegations {
		if d.Grantor == grantor && d.Grantee == grantee && d.Privilege == priv {
			removed++
			continue
		}
		kept = append(kept, d)
	}
	a.delegations = kept
	pruned, err := a.prune(doc, h)
	if err != nil {
		return removed, err
	}
	return removed + pruned, nil
}

// prune drops delegations whose grantor no longer holds delegable authority
// over their scope, iterating until stable (chains collapse).
func (a *Authority) prune(doc *xmltree.Document, h *subject.Hierarchy) (int, error) {
	removedTotal := 0
	for {
		removed := 0
		kept := a.delegations[:0]
		for i, d := range a.delegations {
			ok, err := a.grantorStillAuthorized(doc, h, d, i)
			if err != nil {
				return removedTotal, err
			}
			if ok {
				kept = append(kept, d)
			} else {
				removed++
			}
		}
		a.delegations = kept
		removedTotal += removed
		if removed == 0 {
			return removedTotal, nil
		}
	}
}

// grantorStillAuthorized re-checks delegation d (at index self, which is
// excluded from its own justification) against the current graph.
func (a *Authority) grantorStillAuthorized(doc *xmltree.Document, h *subject.Hierarchy, d Delegation, self int) (bool, error) {
	if d.Grantor == a.owner {
		return true, nil
	}
	target, err := nodesOf(doc, d.Scope, d.Grantor)
	if err != nil {
		return false, err
	}
	for i, j := range a.delegations {
		if i == self || j.Privilege != d.Privilege || !j.WithGrant {
			continue
		}
		if !h.ISA(d.Grantor, j.Grantee) {
			continue
		}
		set, err := nodesOf(doc, j.Scope, d.Grantor)
		if err != nil {
			return false, err
		}
		if covers(set, target) {
			return true, nil
		}
	}
	return false, nil
}

// GuardedAdd issues a rule into pol on behalf of issuer, enforcing the
// administration model: the rule is added only when CanIssue holds.
func (a *Authority) GuardedAdd(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, issuer string, r policy.Rule) error {
	ok, err := a.CanIssue(doc, h, issuer, r.Privilege, r.Path)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s cannot issue %s", ErrNotAuthorized, issuer, r.String())
	}
	return pol.Add(h, r)
}

// GuardedAddChecked is GuardedAdd followed by a static analysis of the
// resulting policy: it returns the analyzer findings that involve the
// newly issued rule (anchored on it or listing it as related), so the
// issuing tool can warn — at grant time — about rules that are born dead,
// reopen earlier denies, or can never be exercised. Each involved finding
// also comes with the repair engine's validated candidate edits for it,
// classified against doc as semantics-preserving or -changing, so the
// grantor sees not just what the new rule broke but the minimal ways to
// unbreak it. The rule is added regardless: findings are advice, not
// vetoes (the dynamic semantics stay authoritative).
func (a *Authority) GuardedAddChecked(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, issuer string, r policy.Rule) ([]policyanalysis.Finding, []policyanalysis.Repair, error) {
	if err := a.GuardedAdd(doc, h, pol, issuer, r); err != nil {
		return nil, nil, err
	}
	rules := make([]policy.Rule, 0, pol.Len())
	for _, pr := range pol.Rules() {
		rules = append(rules, *pr)
	}
	rr := policyanalysis.PlanRepairs(doc, h, rules)
	var involved []policyanalysis.Finding
	involves := map[string]bool{}
	for _, f := range rr.Findings {
		hit := f.Priority == r.Priority
		for _, p := range f.Related {
			if p == r.Priority {
				hit = true
				break
			}
		}
		if hit {
			involved = append(involved, f)
			involves[f.Code+"@"+fmt.Sprint(f.Priority)] = true
		}
	}
	var repairs []policyanalysis.Repair
	for _, rep := range rr.Repairs {
		if involves[rep.Code+"@"+fmt.Sprint(rep.Priority)] {
			repairs = append(repairs, rep)
		}
	}
	return involved, repairs, nil
}
