// Package xupdate implements the XUpdate modification language of §3.4:
// the six operations xupdate:update, xupdate:rename, xupdate:append,
// xupdate:insert-before, xupdate:insert-after and xupdate:remove, both as
// typed Op values and in the XML wire syntax of the XUpdate working draft
// (<xupdate:modifications>).
//
// Execute applies an operation with the paper's *unsecured* semantics
// (axioms 2–9): target nodes are selected on the document itself and no
// privileges are consulted. The secured semantics (axioms 18–25), which
// select on the user's view and check privileges per node, live in
// internal/access.
package xupdate

import (
	"errors"
	"fmt"

	"securexml/internal/obs"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// Telemetry: the unsecured executor (axioms 2–9) records its own stage and
// per-kind counters, so baselines and the secured path (internal/access)
// stay distinguishable in the registry.
var execStage = obs.Stage("xupdate_exec")

// Kind enumerates the XUpdate operations.
type Kind int

// The six XUpdate operations (§3.4.1–3.4.3).
const (
	Update       Kind = iota // replace the content (child) of selected nodes
	Rename                   // relabel selected nodes
	Append                   // insert a tree as last child of selected nodes
	InsertBefore             // insert a tree as immediately preceding sibling
	InsertAfter              // insert a tree as immediately following sibling
	Remove                   // delete the subtrees rooted at selected nodes
)

// String returns the xupdate element name of the operation.
func (k Kind) String() string {
	switch k {
	case Update:
		return "xupdate:update"
	case Rename:
		return "xupdate:rename"
	case Append:
		return "xupdate:append"
	case InsertBefore:
		return "xupdate:insert-before"
	case InsertAfter:
		return "xupdate:insert-after"
	case Remove:
		return "xupdate:remove"
	case Variable:
		return "xupdate:variable"
	default:
		return fmt.Sprintf("xupdate:kind(%d)", int(k))
	}
}

// MetricLabel returns the operation's telemetry label: the element name
// without the wire prefix. Every branch returns a literal (including the
// default), so metric labels built from kinds stay compile-time bounded —
// the property cmd/xmlsec-vet's obslabel pass enforces.
func (k Kind) MetricLabel() string {
	switch k {
	case Update:
		return "update"
	case Rename:
		return "rename"
	case Append:
		return "append"
	case InsertBefore:
		return "insert-before"
	case InsertAfter:
		return "insert-after"
	case Remove:
		return "remove"
	case Variable:
		return "variable"
	default:
		return "unknown"
	}
}

// Op is one XUpdate operation.
type Op struct {
	// Kind selects the operation.
	Kind Kind
	// Select is the PATH parameter: the XPath expression addressing the
	// nodes to operate on.
	Select string
	// NewValue is the VNEW parameter of update and rename.
	NewValue string
	// Content is the TREE parameter of the creating operations: a fragment
	// document whose top-level nodes are inserted. Unused otherwise.
	Content *xmltree.Document
}

// NewOp builds an operation from string parameters, as a command surface
// (shell, HTTP handler) receives them: arg is the new value for Update and
// Rename, the XML content fragment for Append/InsertBefore/InsertAfter,
// the variable name for Variable, and must be empty for Remove. Callers
// that go through NewOp never need to touch xmltree directly.
func NewOp(kind Kind, path, arg string) (*Op, error) {
	op := &Op{Kind: kind, Select: path}
	switch kind {
	case Update, Rename, Variable:
		op.NewValue = arg
	case Append, InsertBefore, InsertAfter:
		content, err := xmltree.ParseString(arg, xmltree.ParseOptions{Fragment: true})
		if err != nil {
			return nil, fmt.Errorf("xupdate: parsing content fragment: %w", err)
		}
		op.Content = content
	case Remove:
		if arg != "" {
			return nil, errors.New("xupdate: remove takes only a select path")
		}
	default:
		return nil, fmt.Errorf("xupdate: unknown operation kind %d", int(kind))
	}
	if err := op.Validate(); err != nil {
		return nil, err
	}
	return op, nil
}

// Validate checks the operation's shape before execution.
func (op *Op) Validate() error {
	if op.Select == "" {
		return errors.New("xupdate: operation has an empty select path")
	}
	if _, err := xpath.Compile(op.Select); err != nil {
		return fmt.Errorf("xupdate: invalid select path: %w", err)
	}
	switch op.Kind {
	case Update, Rename:
		if op.Content != nil {
			return fmt.Errorf("xupdate: %s does not take content", op.Kind)
		}
	case Append, InsertBefore, InsertAfter:
		if op.Content == nil || len(op.Content.Root().Children()) == 0 {
			return fmt.Errorf("xupdate: %s requires a content tree", op.Kind)
		}
	case Remove:
		if op.Content != nil || op.NewValue != "" {
			return errors.New("xupdate: remove takes only a select path")
		}
	case Variable:
		if op.NewValue == "" {
			return errors.New("xupdate: variable requires a name")
		}
		if op.Content != nil {
			return errors.New("xupdate: variable takes only a select expression")
		}
	default:
		return fmt.Errorf("xupdate: unknown operation kind %d", int(op.Kind))
	}
	return nil
}

// Result reports what an executed operation did.
type Result struct {
	// Selected is the number of nodes the select path addressed.
	Selected int
	// Applied is the number of selected nodes the operation acted on. With
	// the unsecured executor Applied == Selected unless a node was
	// structurally ineligible (e.g. renaming the document node).
	Applied int
	// Skipped records selected nodes the operation did not act on, with
	// reasons (structural with Execute; privilege-based with the secured
	// executor in internal/access).
	Skipped []SkipReason
	// Created is the number of nodes added to the document.
	Created int
	// Removed is the number of nodes deleted from the document.
	Removed int
	// Deltas records the structural changes in application order.
	Deltas []Delta
}

// SkipReason explains why one selected node was not acted on.
type SkipReason struct {
	// NodeID is the persistent identifier of the skipped node.
	NodeID string
	// Reason is a human-readable explanation.
	Reason string
}

// SkipInvalidName is the reason every executor gives for a node it does not
// relabel because the new label is not an XML name and the node is an
// element or attribute (xmltree.CheckLabel): the label would be serialized
// verbatim as markup.
const SkipInvalidName = "the new label is not an XML name, as an element or attribute label must be"

// DeltaKind classifies one structural change to the document.
type DeltaKind int

// The delta kinds. Every mutation the six operations can make reduces to
// one of these three.
const (
	// DeltaRelabel: the node kept its identity but its label changed.
	DeltaRelabel DeltaKind = iota
	// DeltaInsert: a new subtree rooted at NodeID was added.
	DeltaInsert
	// DeltaRemove: the subtree rooted at NodeID was removed.
	DeltaRemove
)

// Delta is one structural change made by an executed operation, precise
// enough for a consumer to patch derived state (a cached user view)
// without rescanning the document — see internal/view/incremental.go.
type Delta struct {
	// Kind classifies the change.
	Kind DeltaKind
	// NodeID is the persistent identifier of the affected node: the
	// relabeled node, the root of the inserted subtree (as grafted into
	// the target document), or the root of the removed subtree.
	NodeID string
	// NewLabel is the label after a DeltaRelabel.
	NewLabel string
	// RemovedIDs lists every identifier in the removed subtree (root
	// first, document order) for a DeltaRemove. Persistent labels can be
	// re-allocated after a removal, so a consumer keyed by identifier
	// (Coalesce) must process it before later deltas.
	RemovedIDs []string
}

// Execute applies op to doc with the unsecured semantics of axioms 2–9:
// the select path is evaluated on doc itself and every addressed node is
// acted on. vars supplies XPath variable bindings. Variable ops are only
// meaningful in sequences; use ExecuteAll.
func Execute(doc *xmltree.Document, op *Op, vars xpath.Vars) (*Result, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	if op.Kind == Variable {
		return nil, errors.New("xupdate: variable bindings need a sequence context; use ExecuteAll")
	}
	run := op
	if op.HasDynamicContent() {
		expanded, err := op.ExpandContent(doc.Root(), vars, nil)
		if err != nil {
			return nil, err
		}
		cp := *op
		cp.Content = expanded
		run = &cp
	}
	sel, err := xpath.Select(doc, run.Select, vars)
	if err != nil {
		return nil, fmt.Errorf("xupdate: evaluating select path: %w", err)
	}
	res := &Result{Selected: len(sel)}
	sp := obs.NewSpan(execStage)
	for _, n := range sel {
		if err := applyOne(doc, run, n, res); err != nil {
			sp.End()
			return nil, err
		}
	}
	sp.End()
	obs.Default().Counter("xmlsec_xupdate_unsecured_ops_total",
		"kind", op.Kind.MetricLabel()).Inc()
	return res, nil
}

// ExecuteAll applies a modification document's operations in order with
// the unsecured semantics, threading xupdate:variable bindings through the
// sequence. One Result is returned per operation (a zero Result for
// variable bindings).
func ExecuteAll(doc *xmltree.Document, ops []*Op, vars xpath.Vars) ([]*Result, error) {
	env := make(xpath.Vars, len(vars)+2)
	for k, v := range vars {
		env[k] = v
	}
	results := make([]*Result, 0, len(ops))
	for _, op := range ops {
		if op.Kind == Variable {
			if err := op.Validate(); err != nil {
				return results, err
			}
			v, err := op.BindVariable(doc.Root(), env, nil)
			if err != nil {
				return results, err
			}
			env[op.VarName()] = v
			results = append(results, &Result{})
			continue
		}
		res, err := Execute(doc, op, env)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// applyOne applies the operation to a single selected source node.
func applyOne(doc *xmltree.Document, op *Op, n *xmltree.Node, res *Result) error {
	switch op.Kind {
	case Rename:
		// Axioms 2–3: the label of every node addressed by PATH becomes VNEW.
		if n.Kind() == xmltree.KindDocument {
			res.Skipped = append(res.Skipped, SkipReason{n.IDString(), "cannot rename the document node"})
			return nil
		}
		if xmltree.CheckLabel(n.Kind(), op.NewValue) != nil {
			res.Skipped = append(res.Skipped, SkipReason{n.IDString(), SkipInvalidName})
			return nil
		}
		old := n.Label()
		if err := doc.Rename(n, op.NewValue); err != nil {
			return err
		}
		if old != op.NewValue {
			res.Deltas = append(res.Deltas, Delta{Kind: DeltaRelabel, NodeID: n.IDString(), NewLabel: op.NewValue})
		}
		res.Applied++
	case Update:
		// Axioms 4–5: the label of every *child* of an addressed node
		// becomes VNEW. On element targets this replaces the content.
		kids := append([]*xmltree.Node(nil), n.Children()...)
		if len(kids) == 0 {
			// An empty element gets a text child carrying the new content.
			if n.Kind() != xmltree.KindElement && n.Kind() != xmltree.KindAttribute {
				res.Skipped = append(res.Skipped, SkipReason{n.IDString(), "node has no children to update"})
				return nil
			}
			created, err := doc.AppendChild(n, xmltree.KindText, op.NewValue)
			if err != nil {
				return err
			}
			res.Deltas = append(res.Deltas, Delta{Kind: DeltaInsert, NodeID: created.IDString()})
			res.Applied++
			res.Created++
			return nil
		}
		applied := false
		for _, c := range kids {
			if xmltree.CheckLabel(c.Kind(), op.NewValue) != nil {
				res.Skipped = append(res.Skipped, SkipReason{c.IDString(), SkipInvalidName})
				continue
			}
			old := c.Label()
			if err := doc.Rename(c, op.NewValue); err != nil {
				return err
			}
			if old != op.NewValue {
				res.Deltas = append(res.Deltas, Delta{Kind: DeltaRelabel, NodeID: c.IDString(), NewLabel: op.NewValue})
			}
			applied = true
		}
		if applied {
			res.Applied++
		}
	case Append:
		for _, top := range op.Content.Root().Children() {
			grafted, err := graftOne(doc, n, xmltree.GraftAppend, top, res)
			if err != nil {
				return err
			}
			res.Created += grafted
		}
		res.Applied++
	case InsertBefore, InsertAfter:
		mode := xmltree.GraftBefore
		if op.Kind == InsertAfter {
			mode = xmltree.GraftAfter
		}
		if n.Kind() == xmltree.KindDocument {
			res.Skipped = append(res.Skipped, SkipReason{n.IDString(), "document node has no siblings"})
			return nil
		}
		tops := op.Content.Root().Children()
		if op.Kind == InsertBefore {
			for _, top := range tops {
				grafted, err := graftOne(doc, n, mode, top, res)
				if err != nil {
					return err
				}
				res.Created += grafted
			}
		} else {
			// Insert-after in reverse so the fragment keeps its order.
			for i := len(tops) - 1; i >= 0; i-- {
				grafted, err := graftOne(doc, n, mode, tops[i], res)
				if err != nil {
					return err
				}
				res.Created += grafted
			}
		}
		res.Applied++
	case Remove:
		// Axioms 8–9: the subtree rooted at each addressed node disappears.
		if n.Kind() == xmltree.KindDocument {
			res.Skipped = append(res.Skipped, SkipReason{n.IDString(), "cannot remove the document node"})
			return nil
		}
		if n.Document() != doc {
			// Already removed as part of an earlier selected subtree.
			res.Skipped = append(res.Skipped, SkipReason{n.IDString(), "already removed with an ancestor"})
			return nil
		}
		sub := n.Subtree()
		ids := make([]string, len(sub))
		for i, s := range sub {
			ids[i] = s.IDString()
		}
		res.Removed += len(sub)
		if err := doc.Remove(n); err != nil {
			return err
		}
		res.Deltas = append(res.Deltas, Delta{Kind: DeltaRemove, NodeID: ids[0], RemovedIDs: ids})
		res.Applied++
	}
	return nil
}

// graftOne grafts src relative to ref, records the insert delta, and
// returns the number of nodes created.
func graftOne(doc *xmltree.Document, ref *xmltree.Node, mode xmltree.GraftMode, src *xmltree.Node, res *Result) (int, error) {
	top, err := doc.Graft(ref, mode, src)
	if err != nil {
		return 0, err
	}
	res.Deltas = append(res.Deltas, Delta{Kind: DeltaInsert, NodeID: top.IDString()})
	return len(top.Subtree()), nil
}
