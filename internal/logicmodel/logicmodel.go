// Package logicmodel encodes the paper's axioms 11–25 literally as Datalog
// rules over the internal/datalog engine — the faithful executable
// counterpart of the author's Prolog prototype. It exists as a reference
// oracle: property tests check that the native engines (internal/policy,
// internal/view, internal/access) derive exactly the same perm facts, view
// facts and post-update databases.
//
// Division of labour, matching the paper: the paper does not give axioms
// for the xpath predicate or for create_number ("these axioms can be found
// in our prototype" / "depend on the numbering scheme"); likewise this
// package is fed xpath(p, n) facts computed by the native XPath engine and
// compares insertion *points* rather than generated identifiers.
package logicmodel

import (
	"fmt"

	"securexml/internal/datalog"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// axioms is the rule set of §4, in the paper's numbering. The perm relation
// is specialized to the logged session user (predicate logged/1), as the
// paper's access control axioms all are.
const axioms = `
% axiom 11: reflexivity of isa
isa(S, S) :- subject(S).
% axiom 12: transitivity of isa (isa_edge holds the direct facts of set S)
isa(S, T) :- isa_edge(S, T).
isa(S, T) :- isa_edge(S, M), isa(M, T).

% axiom 14: conflict resolution. defeated(N, R, T) holds when a deny rule
% applicable to the logged user covers node N for privilege R strictly
% later than T. prio/1 ranges over the priorities in use, binding T.
prio(T) :- rulef(E, R, P, S, T).
defeated(N, R, T) :- prio(T), logged(S), isa(S, S2), rulef(deny, R, P2, S2, T2),
                     xpathf(P2, N), gt(T2, T).
perm(N, R) :- logged(S), isa(S, S2), rulef(accept, R, P, S2, T),
              xpathf(P, N), not defeated(N, R, T).

% axioms 15-17: the view. selected/1 is the "parent is itself selected"
% recursion; the document node is always selected (axiom 15).
selected("/").
selected(N) :- child(N, P), selected(P), perm(N, read).
selected(N) :- child(N, P), selected(P), perm(N, position).
% axioms 16 and 17 both require child(n, n') — the document node is covered
% only by axiom 15, never relabeled.
node_view(N, V) :- node(N, V), selected(N), child(N, P), perm(N, read).
node_view(N, "RESTRICTED") :- node(N, V), selected(N), child(N, P),
                              perm(N, position), not perm(N, read).
node_view("/", "/").

% tree geometry: descendant-or-self, derived from child as in set RS of 3.3
desc_or_self(N, N) :- node(N, V).
desc_or_self(N, A) :- child(N, P), desc_or_self(P, A).
`

// updateAxioms encodes the write axioms 18–25 for one operation. The facts
// xpath_view(N) (the op's PATH evaluated on the view) and child_view(C, N)
// are supplied from the materialized view, and vnew/1 carries the VNEW
// parameter.
const updateAxioms = `
% axioms 18-19 (xupdate:rename), with the 4.4.2 RESTRICTED refinement:
% a node is renamed iff addressed on the view and the user holds update and
% read on it.
renamed(N) :- op(rename), xpath_view(N), perm(N, update), perm(N, read).

% axioms 20-21 (xupdate:update): the children in the view of the addressed
% nodes, requiring update and read on the child.
updated(N) :- op(update), xpath_view(NP), child_view(N, NP),
              perm(N, update), perm(N, read).

% axiom 22 (xupdate:append): insertion point is the addressed node itself.
insert_at(N) :- op(append), xpath_view(N), perm(N, insert).

% axioms 23-24 (insert-before/after): the insert privilege sits on the
% parent (in the view) of the addressed node.
insert_at(N) :- op(insert-before), xpath_view(N), child_view(N, F), perm(F, insert).
insert_at(N) :- op(insert-after), xpath_view(N), child_view(N, F), perm(F, insert).

% axiom 25 (xupdate:remove): everything at or below an addressed,
% delete-permitted node disappears.
delroot(NP) :- op(remove), xpath_view(NP), perm(NP, delete).
deleted(N) :- node(N, V), desc_or_self(N, NP), delroot(NP).

% the new database: changed nodes take VNEW, unchanged and undeleted nodes
% keep their labels (the "not addressed / not permitted -> unchanged" halves
% of axioms 18, 20 and 25).
changed(N) :- renamed(N).
changed(N) :- updated(N).
changed(N) :- deleted(N).
node_dbnew(N, W) :- renamed(N), vnew(W).
node_dbnew(N, W) :- updated(N), vnew(W).
node_dbnew(N, V) :- node(N, V), not changed(N).
`

// Model is the logic encoding of one (document, hierarchy, policy, user)
// state, optionally extended with one update operation.
type Model struct {
	engine *datalog.Engine
	db     *datalog.DB
}

// Build constructs and evaluates the model for the session user.
func Build(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string) (*Model, error) {
	return build(doc, h, pol, user, nil, nil)
}

// BuildWithOp constructs the model extended with the write axioms for op.
// The view v must be the user's materialized view of doc (it supplies the
// xpath_view and child_view facts, mirroring §4.4.2's "selecting nodes is
// performed on the view").
func BuildWithOp(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, v *view.View, op *xupdate.Op) (*Model, error) {
	return build(doc, h, pol, user, v, op)
}

func build(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, v *view.View, op *xupdate.Op) (*Model, error) {
	src := axioms
	if op != nil {
		src += updateAxioms
	}
	e, err := datalog.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("logicmodel: axioms: %w", err)
	}

	// Database facts: node/2 and child/2 (sets F and the derived geometry
	// of §3.3).
	for _, n := range doc.Nodes() {
		e.Fact("node", n.IDString(), n.Label())
		if p := n.Parent(); p != nil {
			e.Fact("child", n.IDString(), p.IDString())
		}
	}

	// Subject facts (set S, axiom 10).
	subjects, isa := h.Facts()
	for _, s := range subjects {
		e.Fact("subject", s)
	}
	for _, edge := range isa {
		e.Fact("isa_edge", edge[0], edge[1])
	}
	e.Fact("logged", user)

	// Policy facts (set P, axiom 13) plus the xpath(p, n) extension of each
	// rule path, computed by the native XPath engine on the source document
	// with $USER bound — exactly what the prototype's xpath axioms compute.
	vars := xpath.Vars{"USER": xpath.String(user)}
	for i, r := range pol.Rules() {
		pathID := fmt.Sprintf("p%d", i)
		e.Fact("rulef", r.Effect.String(), r.Privilege.String(), pathID,
			r.Subject, fmt.Sprintf("%d", r.Priority))
		c, err := xpath.Compile(r.Path)
		if err != nil {
			return nil, fmt.Errorf("logicmodel: rule path %q: %w", r.Path, err)
		}
		ns, err := c.Select(doc.Root(), vars)
		if err != nil {
			return nil, fmt.Errorf("logicmodel: evaluating rule path %q: %w", r.Path, err)
		}
		for _, n := range ns {
			e.Fact("xpathf", pathID, n.IDString())
		}
	}

	if op != nil {
		opName := map[xupdate.Kind]string{
			xupdate.Rename:       "rename",
			xupdate.Update:       "update",
			xupdate.Append:       "append",
			xupdate.InsertBefore: "insert-before",
			xupdate.InsertAfter:  "insert-after",
			xupdate.Remove:       "remove",
		}[op.Kind]
		if opName == "" {
			return nil, fmt.Errorf("logicmodel: unknown op kind %d", int(op.Kind))
		}
		e.Fact("op", opName)
		if op.NewValue != "" || op.Kind == xupdate.Rename || op.Kind == xupdate.Update {
			e.Fact("vnew", op.NewValue)
		}
		// xpath_view: the op's PATH evaluated on the view (§4.4.2).
		sel, err := xpath.Select(v.Doc, op.Select, vars)
		if err != nil {
			return nil, fmt.Errorf("logicmodel: op path on view: %w", err)
		}
		for _, n := range sel {
			e.Fact("xpath_view", n.IDString())
		}
		// child_view facts.
		for _, n := range v.Doc.Nodes() {
			if p := n.Parent(); p != nil {
				e.Fact("child_view", n.IDString(), p.IDString())
			}
		}
	}

	db, err := e.Run()
	if err != nil {
		return nil, fmt.Errorf("logicmodel: evaluation: %w", err)
	}
	return &Model{engine: e, db: db}, nil
}

// HasPerm reports the derived perm(n, r) fact for the logged user.
func (m *Model) HasPerm(nodeID string, priv policy.Privilege) bool {
	return m.db.Has("perm", nodeID, priv.String())
}

// ViewFacts returns the derived node_view relation: node id → view label.
func (m *Model) ViewFacts() map[string]string {
	out := make(map[string]string)
	for _, t := range m.db.All("node_view") {
		out[t[0]] = t[1]
	}
	return out
}

// NewDBFacts returns the derived node_dbnew relation after an update
// operation: node id → new label. Only meaningful for models built with
// BuildWithOp and a rename/update/remove op (creating ops add nodes, which
// Datalog cannot invent identifiers for; use InsertPoints for those).
func (m *Model) NewDBFacts() map[string]string {
	out := make(map[string]string)
	for _, t := range m.db.All("node_dbnew") {
		out[t[0]] = t[1]
	}
	return out
}

// InsertPoints returns the derived insert_at relation: the nodes (by id)
// at which a creating operation is permitted to insert.
func (m *Model) InsertPoints() map[string]bool {
	out := make(map[string]bool)
	for _, t := range m.db.All("insert_at") {
		out[t[0]] = true
	}
	return out
}

// DB exposes the underlying evaluated database for inspection (demo use).
func (m *Model) DB() *datalog.DB { return m.db }
