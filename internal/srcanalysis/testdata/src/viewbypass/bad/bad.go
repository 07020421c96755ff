// Package viewbypassbad seeds the viewbypass violations: unsecured
// executor calls and raw node access on documents of unknown provenance.
package viewbypassbad

import (
	"context"

	"securexml/internal/access"
	"securexml/internal/baseline"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// Probe applies an operation directly to the source document (axioms
// 2–9), skipping the view-evaluated checks of axioms 18–25.
func Probe(doc *xmltree.Document, op *xupdate.Op) (*xupdate.Result, error) {
	return xupdate.Execute(doc, op, nil)
}

// Peek serializes a document of unknown provenance: nothing proves it is
// the caller's own view.
func Peek(doc *xmltree.Document) string {
	return doc.XML()
}

// Compare runs the SQL-semantics executor, the §2.2 covert channel.
func Compare(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, op *xupdate.Op) (*xupdate.Result, error) {
	return baseline.Execute(doc, h, pol, "user", op)
}

// Forge selects and authorizes under caller-built permissions: nothing
// proves pm is the user's own.
func Forge(doc *xmltree.Document, mutable func() *xmltree.Document, pm *policy.Perms, op *xupdate.Op) (*xupdate.Result, error) {
	return access.ExecuteFilteredCtx(context.Background(), doc, mutable, pm, "user", op, nil)
}
