// Package baseline implements the write semantics of the author's earlier
// model [10] (and of SQL, per §2.2): write operations are evaluated on the
// *source* database regardless of the read privileges of the user. The
// select path of an operation therefore reads data the user is not
// permitted to see, and the operation outcome (how many rows/nodes were
// touched) leaks that data back — the covert channel the paper's model
// closes by evaluating writes on views instead.
//
// The package exists as the comparison baseline for experiment E7 and the
// covert-channel example; it must not be used to protect anything.
package baseline

import (
	"errors"
	"fmt"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// ErrUnknownUser is returned when the session user is not in the hierarchy.
var ErrUnknownUser = errors.New("baseline: unknown user")

// Execute applies op on behalf of user with the model-[10] semantics:
// the select path runs on the source document, and only the *write*
// privilege relevant to the operation is checked per node — read privileges
// are ignored exactly as in SQL's UPDATE/DELETE.
//
// The returned Result's Selected and Applied counts are visible to the user
// in this model (SQL reports "n rows updated"); that is the leak.
func Execute(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, op *xupdate.Op) (*xupdate.Result, error) {
	if !h.Exists(user) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	if err := op.Validate(); err != nil {
		return nil, err
	}
	if op.Kind == xupdate.Variable {
		return nil, errors.New("baseline: variable bindings need a sequence context")
	}
	// pm is read with nodes of doc only, the document it is evaluated on.
	pm, err := pol.Evaluate(doc, h, user)
	if err != nil {
		return nil, err
	}
	vars := xpath.Vars{"USER": xpath.String(user)}
	if op.HasDynamicContent() {
		// Model [10] reads the source even here — another face of the leak.
		expanded, err := op.ExpandContent(doc.Root(), vars, nil)
		if err != nil {
			return nil, err
		}
		cp := *op
		cp.Content = expanded
		op = &cp
	}
	sel, err := xpath.Select(doc, op.Select, vars) // source, not view
	if err != nil {
		return nil, fmt.Errorf("baseline: evaluating select path: %w", err)
	}
	res := &xupdate.Result{Selected: len(sel)}
	for _, n := range sel {
		if err := applyOne(doc, pm, op, n, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func skip(res *xupdate.Result, n *xmltree.Node, reason string) {
	res.Skipped = append(res.Skipped, xupdate.SkipReason{NodeID: n.IDString(), Reason: reason})
}

func applyOne(doc *xmltree.Document, pm *policy.Perms, op *xupdate.Op, n *xmltree.Node, res *xupdate.Result) error {
	if n.Document() != doc {
		skip(res, n, "already removed with an ancestor")
		return nil
	}
	switch op.Kind {
	case xupdate.Rename:
		if n.Kind() == xmltree.KindDocument {
			skip(res, n, "cannot rename the document node")
			return nil
		}
		if !pm.Has(n, policy.Update) {
			skip(res, n, "update privilege required")
			return nil
		}
		if xmltree.CheckLabel(n.Kind(), op.NewValue) != nil {
			skip(res, n, xupdate.SkipInvalidName)
			return nil
		}
		if err := doc.Rename(n, op.NewValue); err != nil {
			return err
		}
		res.Applied++
	case xupdate.Update:
		kids := append([]*xmltree.Node(nil), n.Children()...)
		if len(kids) == 0 {
			skip(res, n, "no children to update")
			return nil
		}
		applied := false
		for _, k := range kids {
			if !pm.Has(k, policy.Update) {
				skip(res, k, "update privilege required on the child")
				continue
			}
			if xmltree.CheckLabel(k.Kind(), op.NewValue) != nil {
				skip(res, k, xupdate.SkipInvalidName)
				continue
			}
			if err := doc.Rename(k, op.NewValue); err != nil {
				return err
			}
			applied = true
		}
		if applied {
			res.Applied++
		}
	case xupdate.Append:
		if !pm.Has(n, policy.Insert) {
			skip(res, n, "insert privilege required")
			return nil
		}
		for _, top := range op.Content.Root().Children() {
			t, err := doc.Graft(n, xmltree.GraftAppend, top)
			if err != nil {
				return err
			}
			res.Created += len(t.Subtree())
		}
		res.Applied++
	case xupdate.InsertBefore, xupdate.InsertAfter:
		parent := n.Parent()
		if parent == nil {
			skip(res, n, "document node has no siblings")
			return nil
		}
		if !pm.Has(parent, policy.Insert) {
			skip(res, n, "insert privilege required on the parent")
			return nil
		}
		mode := xmltree.GraftBefore
		tops := op.Content.Root().Children()
		if op.Kind == xupdate.InsertAfter {
			mode = xmltree.GraftAfter
			for i := len(tops) - 1; i >= 0; i-- {
				t, err := doc.Graft(n, mode, tops[i])
				if err != nil {
					return err
				}
				res.Created += len(t.Subtree())
			}
		} else {
			for _, top := range tops {
				t, err := doc.Graft(n, mode, top)
				if err != nil {
					return err
				}
				res.Created += len(t.Subtree())
			}
		}
		res.Applied++
	case xupdate.Remove:
		if n.Kind() == xmltree.KindDocument {
			skip(res, n, "cannot remove the document node")
			return nil
		}
		if !pm.Has(n, policy.Delete) {
			skip(res, n, "delete privilege required")
			return nil
		}
		res.Removed += len(n.Subtree())
		if err := doc.Remove(n); err != nil {
			return err
		}
		res.Applied++
	default:
		return fmt.Errorf("baseline: unknown operation kind %d", int(op.Kind))
	}
	return nil
}
