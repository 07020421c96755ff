package access_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"securexml/internal/access"
	"securexml/internal/policy"
	"securexml/internal/scenario"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// writeEnv is one policy world the write-equivalence oracle runs in.
type writeEnv struct {
	name string
	doc  *xmltree.Document
	h    *subject.Hierarchy
	pol  *policy.Policy
}

// writeEnvs returns the paper's Fig. 2/3 world and one clean corpus per
// internal/scenario shape.
func writeEnvs(tb testing.TB) []writeEnv {
	tb.Helper()
	doc, err := xmltree.ParseString(`<patients><franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck><robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert></patients>`, xmltree.ParseOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	h := subject.PaperHierarchy()
	pol, err := policy.PaperPolicy(h)
	if err != nil {
		tb.Fatal(err)
	}
	envs := []writeEnv{{"paper", doc, h, pol}}
	for _, shape := range scenario.Shapes() {
		c, err := scenario.GenerateCorpus(scenario.CorpusConfig{Shape: shape, Rules: 24, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		pol, err := c.Policy()
		if err != nil {
			tb.Fatal(err)
		}
		envs = append(envs, writeEnv{shape, c.Doc, c.Hierarchy, pol})
	}
	return envs
}

// writeGen draws secured-write operations of all six kinds against the
// current document: positional ops on live source nodes (which address
// different nodes on the view whenever hidden siblings precede them),
// name-selected ops over many nodes, selections by the RESTRICTED label
// or $USER, and value-of content.
type writeGen struct {
	rng   *rand.Rand
	names []string
}

func newWriteGen(seed int64, doc *xmltree.Document) *writeGen {
	seen := map[string]bool{}
	var names []string
	for _, n := range doc.Nodes() {
		if n.Kind() == xmltree.KindElement && !seen[n.Label()] {
			seen[n.Label()] = true
			names = append(names, n.Label())
		}
	}
	return &writeGen{rng: rand.New(rand.NewSource(seed)), names: names}
}

var writeKinds = []xupdate.Kind{xupdate.Update, xupdate.Rename, xupdate.Append, xupdate.InsertBefore, xupdate.InsertAfter, xupdate.Remove}

func (g *writeGen) next(tb testing.TB, doc *xmltree.Document) *xupdate.Op {
	tb.Helper()
	if g.rng.Intn(3) == 0 {
		if op, err := workload.OpStream(workload.OpConfig{Doc: doc, Seed: g.rng.Int63()}).Next(); err == nil {
			return op
		}
	}
	name := g.names[g.rng.Intn(len(g.names))]
	paths := []string{
		"//" + name,
		"//" + name + "/node()",
		"(//" + name + ")[last()]",
		"/*/*[2]",
		"//RESTRICTED",
		"//*[. = 'RESTRICTED']/..",
		"//*[name() = $USER] | //" + name + "[$USER = 'nobody']",
		"/",
	}
	path := paths[g.rng.Intn(len(paths))]
	kind := writeKinds[g.rng.Intn(len(writeKinds))]
	var arg string
	switch kind {
	case xupdate.Update, xupdate.Rename:
		arg = fmt.Sprintf("w%d", g.rng.Intn(4))
	case xupdate.Append, xupdate.InsertBefore, xupdate.InsertAfter:
		if g.rng.Intn(3) == 0 {
			return valueOfOp(tb, kind, path, "//"+g.names[g.rng.Intn(len(g.names))])
		}
		arg = `<note>n</note><rec id="r">t</rec>`
	}
	op, err := xupdate.NewOp(kind, path, arg)
	if err != nil {
		tb.Fatal(err)
	}
	return op
}

// valueOfOp builds a content op whose content copies what from the view.
func valueOfOp(tb testing.TB, kind xupdate.Kind, path, what string) *xupdate.Op {
	tb.Helper()
	ops, err := xupdate.ParseModificationsString(fmt.Sprintf(
		`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate"><%s select="%s"><xupdate:element name="stash"><xupdate:value-of select="%s"/></xupdate:element></%s></xupdate:modifications>`,
		kind, path, what, kind))
	if err != nil {
		tb.Fatal(err)
	}
	return ops[0]
}

// docSignature lists every node's identifier, kind and label in document
// order: equal signatures mean equal trees with equal identifiers.
func docSignature(d *xmltree.Document) string {
	var b strings.Builder
	for _, n := range d.Nodes() {
		fmt.Fprintf(&b, "%s|%d|%s\n", n.ID(), n.Kind(), n.Label())
	}
	return b.String()
}

// writeTally counts, per operation kind, the writes that applied to some
// node and those that refused some node.
type writeTally map[xupdate.Kind][2]int

func (t writeTally) add(k xupdate.Kind, res *xupdate.Result) {
	if res == nil {
		return
	}
	c := t[k]
	if res.Applied > 0 {
		c[0]++
	}
	if len(res.Skipped) > 0 {
		c[1]++
	}
	t[k] = c
}

// checkFilteredWrite runs op for user both ways from the state base:
// ExecuteFilteredCtx over a frozen copy under the user's permissions, and
// the specification ExecuteWithVarsCtx over a second clone. Results, errors
// and final documents must be identical, the frozen copy untouched, and
// the filtered side must copy the document exactly when the write changes
// it. It returns the specification's document, the next state.
func checkFilteredWrite(tb testing.TB, what string, env writeEnv, base *xmltree.Document, user string, op *xupdate.Op, tally writeTally) *xmltree.Document {
	tb.Helper()
	ctx := context.Background()
	frozen := base.Clone()
	frozen.Freeze()
	before := docSignature(frozen)
	pm, err := env.pol.Evaluate(frozen, env.h, user)
	if err != nil {
		tb.Fatal(err)
	}
	var v *view.View
	if op.HasDynamicContent() {
		v = view.Materialize(frozen, pm)
	}
	var clones int
	var clone *xmltree.Document
	got, gotErr := access.ExecuteFilteredCtx(ctx, frozen, func() *xmltree.Document {
		clones++
		clone = frozen.Clone()
		return clone
	}, pm, v, user, op, nil)

	spec := base.Clone()
	from := spec.Version()
	want, _, wantErr := access.ExecuteWithVarsCtx(ctx, spec, env.h, env.pol, user, op, nil)

	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		tb.Fatalf("%s: error %v, specification %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		tb.Fatalf("%s: result diverged\nfiltered:      %+v\nspecification: %+v", what, got, want)
	}
	if docSignature(frozen) != before {
		tb.Fatalf("%s: the base document changed", what)
	}
	final := frozen
	if clone != nil {
		final = clone
	}
	if got, want := docSignature(final), docSignature(spec); got != want {
		tb.Fatalf("%s: documents diverged\nfiltered:\n%s\nspecification:\n%s", what, got, want)
	}
	if changed := spec.Version() != from; clones > 1 || (clones == 1) != changed {
		tb.Fatalf("%s: %d document copies for a write that changed the document: %v", what, clones, changed)
	}
	tally.add(op.Kind, want)
	return spec
}

// runFilteredWrites drives steps generated writes through every user of
// env in turn, each from the state the previous one left.
func runFilteredWrites(tb testing.TB, env writeEnv, seed int64, steps int, tally writeTally) {
	tb.Helper()
	users := env.h.Users()
	doc := env.doc.Clone()
	gen := newWriteGen(seed, doc)
	for i := 0; i < steps; i++ {
		user := users[i%len(users)]
		op := gen.next(tb, doc)
		doc = checkFilteredWrite(tb, fmt.Sprintf("%s seed %d step %d: %s %s %q", env.name, seed, i, user, op.Kind, op.Select), env, doc, user, op, tally)
	}
}

// TestFilteredWriteMatchesViewWrite is the write-equivalence oracle of
// the production write path: selecting on the source under the user's
// permissions, with the document copied only before the first change,
// gives exactly the results and the document of selecting on the
// materialized view (axioms 18–25), for every user of the paper policy
// and of each scenario corpus, over generated operations of all six
// kinds.
func TestFilteredWriteMatchesViewWrite(t *testing.T) {
	tally := writeTally{}
	for _, env := range writeEnvs(t) {
		for seed := int64(1); seed <= 3; seed++ {
			runFilteredWrites(t, env, seed, 60, tally)
		}
	}
	for _, k := range writeKinds {
		if c := tally[k]; c[0] == 0 || c[1] == 0 {
			t.Errorf("%s: %d writes applied and %d refused somewhere; want both exercised", k, c[0], c[1])
		}
	}
}

// FuzzFilteredWrite runs the write-equivalence oracle over fuzzed seeds
// in every environment.
func FuzzFilteredWrite(f *testing.F) {
	for seed := int64(0); seed < 5; seed++ {
		f.Add(seed, uint8(seed))
	}
	envs := writeEnvs(f)
	f.Fuzz(func(t *testing.T, seed int64, env uint8) {
		runFilteredWrites(t, envs[int(env)%len(envs)], seed, 24, writeTally{})
	})
}
