package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"securexml/internal/access"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// writeMirror is the reference side of the write-path differential: the
// same document (same node identifiers), hierarchy and policy, driven
// straight through access.ExecuteWithVars, which derives every view afresh
// from the mirror document. No session cache, generation or commit round
// sits in between.
type writeMirror struct {
	doc *xmltree.Document
	h   *subject.Hierarchy
	pol *policy.Policy
}

func newWriteMirror(db *Database) *writeMirror {
	g := db.gen()
	return &writeMirror{doc: g.doc.Clone(), h: g.subjects.Clone(), pol: g.policy.Clone()}
}

func (m *writeMirror) update(user string, op *xupdate.Op) (*xupdate.Result, error) {
	res, _, err := access.ExecuteWithVars(m.doc, m.h, m.pol, user, op, nil)
	return res, err
}

// apply mirrors Session.apply: variables bind on a freshly derived view.
func (m *writeMirror) apply(user, mods string) ([]*xupdate.Result, error) {
	ops, err := xupdate.ParseModificationsString(mods)
	if err != nil {
		return nil, err
	}
	env := xpath.Vars{}
	var results []*xupdate.Result
	for _, op := range ops {
		if op.Kind == xupdate.Variable {
			pm, err := m.pol.Evaluate(m.doc, m.h, user)
			if err != nil {
				return results, err
			}
			val, err := op.BindVariable(view.Materialize(m.doc, pm).Doc.Root(), mergeUser(env, user), nil)
			if err != nil {
				return results, err
			}
			env[op.VarName()] = val
			results = append(results, &xupdate.Result{})
			continue
		}
		res, _, err := access.ExecuteWithVars(m.doc, m.h, m.pol, user, op, env)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
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

// sameOutcome compares one secured write on both sides: every result
// field (Selected, Applied, Created, Removed, Skipped IDs and reasons,
// Deltas) and the error text.
func sameOutcome(t *testing.T, what string, got, want *xupdate.Result, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, mirror %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result diverged\nsession: %+v\nmirror:  %+v", what, got, want)
	}
}

// pathOp is an operation given by its wire parameters.
type pathOp struct {
	kind      xupdate.Kind
	path, arg string
}

func (p pathOp) op(t *testing.T) *xupdate.Op {
	op, err := xupdate.NewOp(p.kind, p.path, p.arg)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// writePathOps is the fixed pool of path-selected operations: multi-node
// selections, selections that differ between view and source, and targets
// most users may not touch.
var writePathOps = []pathOp{
	{xupdate.Update, "/patients/*/diagnosis", "flu"},
	{xupdate.Update, "//diagnosis", "angina"},
	{xupdate.Update, "/patients/*", "renamed"},
	{xupdate.Rename, "//service", "dept"},
	{xupdate.Rename, "/patients/*[1]", "zoe"},
	{xupdate.Rename, "//*[. = 'RESTRICTED']", "x"},
	{xupdate.Append, "/patients", "<admitted><service>er</service></admitted>"},
	{xupdate.Append, "//diagnosis", "<note>n</note>"},
	{xupdate.InsertBefore, "//diagnosis", "<note>b</note>"},
	{xupdate.InsertAfter, "/patients/*[last()]", "<visitor/>"},
	{xupdate.Remove, "//diagnosis/node()", ""},
	{xupdate.Remove, "/patients/*[name() = $USER]/service", ""},
	{xupdate.Remove, "//record", ""},
	{xupdate.Remove, "/patients/*[2]", ""},
}

// interactingPairs are operation pairs whose second selects differently
// once the first has committed, so a second write that selected on a view
// of the state before the first would diverge from the mirror.
var interactingPairs = [][2]pathOp{
	{{xupdate.Append, "/patients", "<admitted><service>er</service></admitted>"}, {xupdate.Rename, "//service", "dept"}},
	{{xupdate.Remove, "//record", ""}, {xupdate.Rename, "//record", "rec"}},
	{{xupdate.InsertBefore, "//diagnosis", "<note>b</note>"}, {xupdate.Remove, "//note", ""}},
	{{xupdate.Rename, "/patients/*[1]", "zoe"}, {xupdate.Append, "/patients/zoe", "<note>z</note>"}},
	{{xupdate.Update, "//diagnosis", "angina"}, {xupdate.Update, "//diagnosis[. = 'angina']", "cured"}},
	{{xupdate.Remove, "//diagnosis/node()", ""}, {xupdate.Append, "//diagnosis[not(node())]", "<note>empty</note>"}},
}

// writePathMods are modification documents with xupdate:variable bindings
// and value-of content. The session binds and expands them on the source
// under its permission filter, copying node-sets through it; the mirror
// binds on a freshly materialized view. They cover variables used as
// selection roots (down and up the tree), node-set bindings whose
// subtrees hold hidden and RESTRICTED nodes copied by value-of, and
// atomic bindings.
var writePathMods = []string{
	`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:variable name="dx" select="//diagnosis/text()"/>
	  <xupdate:append select="/patients/*[1]">
	    <xupdate:element name="note">was: <xupdate:value-of select="$dx"/></xupdate:element>
	  </xupdate:append>
	</xupdate:modifications>`,
	`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:variable name="n" select="count(//diagnosis)"/>
	  <xupdate:insert-after select="//service">
	    <xupdate:element name="count"><xupdate:value-of select="$n"/></xupdate:element>
	  </xupdate:insert-after>
	  <xupdate:update select="//diagnosis">seen</xupdate:update>
	</xupdate:modifications>`,
	`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:variable name="p" select="/patients/*[last()]"/>
	  <xupdate:remove select="$p/service"/>
	  <xupdate:append select="$p"><xupdate:element name="memo"><xupdate:value-of select="$p"/></xupdate:element></xupdate:append>
	</xupdate:modifications>`,
	`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:variable name="all" select="/patients"/>
	  <xupdate:append select="/patients"><xupdate:element name="copy"><xupdate:value-of select="$all"/></xupdate:element></xupdate:append>
	</xupdate:modifications>`,
	`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:variable name="d" select="//diagnosis"/>
	  <xupdate:insert-before select="$d/.."><xupdate:element name="seen"><xupdate:value-of select="$d/../*"/></xupdate:element></xupdate:insert-before>
	  <xupdate:update select="$d[last()]/..">moved</xupdate:update>
	</xupdate:modifications>`,
	`<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
	  <xupdate:variable name="s" select="//service | //RESTRICTED"/>
	  <xupdate:variable name="t" select="string($s[1])"/>
	  <xupdate:append select="/patients"><xupdate:element name="note"><xupdate:value-of select="$t"/>/<xupdate:value-of select="count($s)"/></xupdate:element></xupdate:append>
	  <xupdate:remove select="$s[2]"/>
	</xupdate:modifications>`,
}

// writePathHarness drives one database and its mirror in lockstep.
type writePathHarness struct {
	t        *testing.T
	db       *Database
	m        *writeMirror
	users    []string
	sessions map[string]*Session
	rng      *rand.Rand
	name     string
	step     int
	// applied/refused count node outcomes across the run, and movedBases
	// the base-moved runs whose first write really published a new
	// generation, so the test can insist each case was exercised.
	applied, refused, movedBases int
}

func newWritePathHarness(t *testing.T, name string, db *Database, seed int64) *writePathHarness {
	hs := &writePathHarness{
		t: t, db: db, m: newWriteMirror(db), users: db.Users(),
		sessions: make(map[string]*Session), rng: rand.New(rand.NewSource(seed)), name: name,
	}
	for _, u := range hs.users {
		hs.sessions[u] = session(t, db, u)
	}
	return hs
}

func (hs *writePathHarness) tally(results ...*xupdate.Result) {
	for _, r := range results {
		if r != nil {
			hs.applied += r.Applied
			hs.refused += len(r.Skipped)
		}
	}
}

func (hs *writePathHarness) user() string { return hs.users[hs.rng.Intn(len(hs.users))] }

// op draws the next single operation: a positional op on a live node from
// the shared OpStream generator, or one from the path pool.
func (hs *writePathHarness) op() *xupdate.Op {
	if hs.rng.Intn(2) == 0 {
		op, err := workload.OpStream(workload.OpConfig{Doc: hs.m.doc, Seed: hs.rng.Int63()}).Next()
		if err == nil {
			return op
		}
	}
	return writePathOps[hs.rng.Intn(len(writePathOps))].op(hs.t)
}

// writer returns a user, in random order, whose op would change the
// document, or a random user when nobody's would.
func (hs *writePathHarness) writer(op *xupdate.Op) string {
	for _, i := range hs.rng.Perm(len(hs.users)) {
		probe := &writeMirror{doc: hs.m.doc.Clone(), h: hs.m.h, pol: hs.m.pol}
		from := probe.doc.Version()
		if _, err := probe.update(hs.users[i], op); err == nil && probe.doc.Version() != from {
			return hs.users[i]
		}
	}
	return hs.user()
}

func (hs *writePathHarness) label(what string) string {
	hs.step++
	return fmt.Sprintf("%s step %d %s", hs.name, hs.step, what)
}

// update runs op through the user's session and the mirror.
func (hs *writePathHarness) update(user string, op *xupdate.Op) {
	got, gotErr := hs.sessions[user].Update(op)
	want, wantErr := hs.m.update(user, op)
	sameOutcome(hs.t, hs.label(fmt.Sprintf("%s %s %s", user, op.Kind, op.Select)), got, want, gotErr, wantErr)
	hs.tally(got)
}

// apply runs a modification document through the session and the mirror.
func (hs *writePathHarness) apply(user, mods string) {
	got, gotErr := hs.sessions[user].Apply(mods)
	want, wantErr := hs.m.apply(user, mods)
	what := hs.label(user + " apply")
	if len(got) != len(want) {
		hs.t.Fatalf("%s: %d results, mirror %d", what, len(got), len(want))
	}
	for i := range got {
		sameOutcome(hs.t, fmt.Sprintf("%s op %d", what, i), got[i], want[i], nil, nil)
	}
	sameOutcome(hs.t, what, nil, nil, gotErr, wantErr)
	hs.tally(got...)
}

// checkSource compares the committed source with the mirror.
func (hs *writePathHarness) checkSource() {
	hs.t.Helper()
	if got, want := docSignature(hs.db.gen().doc), docSignature(hs.m.doc); got != want {
		hs.t.Fatalf("%s step %d: source diverged from mirror\nsession:\n%s\nmirror:\n%s", hs.name, hs.step, got, want)
	}
}

// sequential runs n writes one at a time, by random users: each user's
// cached permissions are patched (or re-derived, for users whose policy
// is not chain-only) between its writes as other users commit.
func (hs *writePathHarness) sequential(n int) {
	for i := 0; i < n; i++ {
		if hs.rng.Intn(4) == 0 {
			hs.apply(hs.user(), writePathMods[hs.rng.Intn(len(writePathMods))])
		} else {
			hs.update(hs.user(), hs.op())
		}
		hs.checkSource()
	}
}

// inOneRound queues reqs, in order, behind a stalled commit leader so
// they all land in the same commit round. before, if set, runs on the
// leader in the stalled round after release, ahead of publishing it.
func inOneRound(t *testing.T, db *Database, before func(c *commitCtx), reqs ...func()) {
	t.Helper()
	stall, entered := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		db.submit(func(c *commitCtx) {
			close(entered)
			<-stall
			if before != nil {
				before(c)
			}
		})
	}()
	<-entered
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for {
			db.commitMu.Lock()
			n := len(db.queue)
			db.commitMu.Unlock()
			if n == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d requests queued behind the stalled leader", n, i+1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(stall)
	wg.Wait()
}

// sourceCounts snapshots the secured-view source counters.
func sourceCounts() (session, rebuild uint64) {
	return securedViewSession.Value(), securedViewRebuild.Value()
}

// expectSources asserts how many writes since (s0, r0) selected on the
// session's view and how many re-derived it.
func (hs *writePathHarness) expectSources(what string, s0, r0, wantSession, wantRebuild uint64) {
	hs.t.Helper()
	s1, r1 := sourceCounts()
	if s1-s0 != wantSession || r1-r0 != wantRebuild {
		hs.t.Fatalf("%s %s: view sources session+%d rebuild+%d, want +%d/+%d",
			hs.name, what, s1-s0, r1-r0, wantSession, wantRebuild)
	}
}

// baseMoved pins user's view on generation G, then lets another user's
// write of pair[0] publish G+1 before user's pair[1] write reaches its
// own round: the round's currentPerms must patch (or, for users whose
// policy is not chain-only, rebuild) the pin for G+1.
func (hs *writePathHarness) baseMoved(user string, pair [2]pathOp) {
	opOther, op := pair[0].op(hs.t), pair[1].op(hs.t)
	other := hs.writer(opOther)
	var res, resOther *xupdate.Result
	var err, errOther error
	s0, r0 := sourceCounts()
	inOneRound(hs.t, hs.db, func(c *commitCtx) {
		doc := c.mutableDoc()
		from := doc.Version()
		resOther, errOther = hs.sessions[other].executeInRound(context.Background(), c, opOther, nil)
		if to := doc.Version(); errOther == nil && to != from {
			c.batches = append(c.batches, deltaBatch{fromVer: from, toVer: to, deltas: resOther.Deltas})
		}
	}, func() { res, err = hs.sessions[user].Update(op) })
	from := hs.m.doc.Version()
	wantOther, wantOtherErr := hs.m.update(other, opOther)
	if hs.m.doc.Version() != from {
		hs.movedBases++
	}
	sameOutcome(hs.t, hs.label("base-moved first "+other), resOther, wantOther, errOther, wantOtherErr)
	want, wantErr := hs.m.update(user, op)
	sameOutcome(hs.t, hs.label("base-moved "+user), res, want, err, wantErr)
	hs.tally(res, resOther)
	hs.checkSource()
	hs.expectSources("base moved", s0, r0, 2, 0)
}

// twoInRound commits pair[0] and then user's pair[1] in one round: the
// first selects under its session's permissions, the second must
// re-derive once the first moved the scratch document (a refused first
// write leaves it pristine).
func (hs *writePathHarness) twoInRound(user string, pair [2]pathOp) {
	op1, op2 := pair[0].op(hs.t), pair[1].op(hs.t)
	u1 := hs.writer(op1)
	var res1, res2 *xupdate.Result
	var err1, err2 error
	s0, r0 := sourceCounts()
	inOneRound(hs.t, hs.db, nil,
		func() { res1, err1 = hs.sessions[u1].Update(op1) },
		func() { res2, err2 = hs.sessions[user].Update(op2) })
	from := hs.m.doc.Version()
	want1, wantErr1 := hs.m.update(u1, op1)
	sameOutcome(hs.t, hs.label("round first "+u1), res1, want1, err1, wantErr1)
	moved := hs.m.doc.Version() != from
	want2, wantErr2 := hs.m.update(user, op2)
	sameOutcome(hs.t, hs.label("round second "+user), res2, want2, err2, wantErr2)
	hs.tally(res1, res2)
	hs.checkSource()
	if moved {
		hs.expectSources("two in round", s0, r0, 1, 1)
	} else {
		hs.expectSources("two in round (first refused)", s0, r0, 2, 0)
	}
}

// ruleThenWrite commits a policy change and a write in one round: the
// write must see the new rule, so it re-derives from the scratch policy.
func (hs *writePathHarness) ruleThenWrite(user string, r policy.Rule, op *xupdate.Op) {
	var res *xupdate.Result
	var err, ruleErr error
	s0, r0 := sourceCounts()
	inOneRound(hs.t, hs.db, nil,
		func() { ruleErr = hs.db.AddRule(r) },
		func() { res, err = hs.sessions[user].Update(op) })
	if ruleErr != nil {
		hs.t.Fatal(ruleErr)
	}
	if err := hs.m.pol.Add(hs.m.h, r); err != nil {
		hs.t.Fatal(err)
	}
	want, wantErr := hs.m.update(user, op)
	sameOutcome(hs.t, hs.label("after rule "+user), res, want, err, wantErr)
	hs.tally(res)
	hs.checkSource()
	hs.expectSources("rule then write", s0, r0, 0, 1)
}

// loadThenWrite commits a document replacement and a write in one round:
// the write must select on the new document. The writer is someone op
// would change the old document for, so a write that selected on the
// view cached for the old document would act where the mirror does not.
func (hs *writePathHarness) loadThenWrite(xml string, p pathOp) {
	op := p.op(hs.t)
	user := hs.writer(op)
	fresh, err := xmltree.ParseString(xml, xmltree.ParseOptions{Scheme: hs.db.scheme})
	if err != nil {
		hs.t.Fatal(err)
	}
	var loadErr error
	var res *xupdate.Result
	s0, r0 := sourceCounts()
	inOneRound(hs.t, hs.db, nil,
		func() { loadErr = hs.db.LoadXMLString(xml) },
		func() { res, err = hs.sessions[user].Update(op) })
	if loadErr != nil {
		hs.t.Fatal(loadErr)
	}
	hs.m.doc = fresh
	want, wantErr := hs.m.update(user, op)
	sameOutcome(hs.t, hs.label("after load "+user), res, want, err, wantErr)
	hs.tally(res)
	hs.checkSource()
	hs.expectSources("load then write", s0, r0, 0, 1)
}

// ineligibleUsers lists the users whose policy is not chain-only, so
// their cached permissions are re-derived rather than patched.
func ineligibleUsers(db *Database) []string {
	g := db.gen()
	var out []string
	for _, u := range db.Users() {
		if _, ok := view.NewMaintainer(g.policy, g.subjects, u); !ok {
			out = append(out, u)
		}
	}
	return out
}

// TestSecuredWritePathDifferential checks that secured writes through
// sessions, which select under each session's incrementally maintained
// permissions, give exactly the results of access.ExecuteWithVars on
// an unsecured mirror, which derives every view afresh. It covers the
// paper policy and seeded random 4-quadrant policies, sequential writes
// and Apply documents with variables, and every case where the round must
// patch, rebuild or fall back: a base that moved between the pin and the
// round, a second write in a round, a rule change or a document
// replacement ahead of a write in the same round, and users whose policy
// is not chain-only.
func TestSecuredWritePathDifferential(t *testing.T) {
	type dbCase struct {
		name string
		db   *Database
		seed int64
	}
	cases := []dbCase{{"paper", hospital(t), 1}}
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, dbCase{fmt.Sprintf("random-%d", seed), randomExplainDB(t, seed), seed})
	}
	var applied, refused, movedBases, ineligibleRuns int
	for _, tc := range cases {
		hs := newWritePathHarness(t, tc.name, tc.db, tc.seed)
		ineligibleRuns += len(ineligibleUsers(hs.db))
		initial := hs.db.SourceXML()
		// Replacements that keep the document's shape (and so, from the
		// parser, its version) but not its labels, each written in the
		// round that loads it.
		renamed := strings.ReplaceAll(initial, "service>", "unit>")
		hs.loadThenWrite(renamed, pathOp{xupdate.Rename, "//service", "dept"})
		hs.loadThenWrite(initial, pathOp{xupdate.Rename, "//unit", "service"})
		hs.sequential(30)
		for _, mods := range writePathMods {
			for _, u := range hs.users {
				hs.apply(u, mods)
				hs.checkSource()
			}
		}
		for _, pair := range interactingPairs {
			for _, u := range hs.users {
				hs.baseMoved(u, pair)
				hs.twoInRound(u, pair)
			}
		}
		// Revoking read for the last user in the round of its own write: a
		// write that selected on the view cached under the old policy would
		// still see (and try to change) the patients.
		last := hs.users[len(hs.users)-1]
		hs.ruleThenWrite(last, policy.Rule{
			Effect: policy.Deny, Privilege: policy.Read, Subject: last,
			Path: "/descendant-or-self::node()", Priority: 1 << 40,
		}, pathOp{xupdate.Update, "/patients/*", "renamed"}.op(t))
		hs.sequential(10)
		hs.loadThenWrite(initial, writePathOps[hs.rng.Intn(len(writePathOps))])
		hs.sequential(10)
		applied += hs.applied
		refused += hs.refused
		movedBases += hs.movedBases
	}
	if applied == 0 || refused == 0 {
		t.Fatalf("run exercised applied=%d refused=%d node outcomes; want both", applied, refused)
	}
	if movedBases == 0 {
		t.Fatal("no base-moved run published a generation between pin and round")
	}
	if ineligibleRuns == 0 {
		t.Fatal("no policy made any user ineligible for incremental maintenance")
	}
}
