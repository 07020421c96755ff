package policyanalysis

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"securexml/internal/findings"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

// This file implements minimal-repair synthesis over analyzer findings,
// after Bravo–Cheney–Fundulaki's repair framework for inconsistent XML
// write-access policies: for each repairable finding, enumerate candidate
// edit sets from a small primitive vocabulary (delete a rule, flip its
// sign, renumber its priority, narrow its path), rank them by edit
// distance, and offer only candidates that survive two gates — re-analysis
// (the finding is gone and nothing new appeared) and, when a document is
// at hand, an E10-style differential oracle (cell-for-cell permission
// comparison per user) that labels each survivor semantics-preserving or
// semantics-changing.

// Edit kinds.
const (
	EditDeleteRule  = "delete-rule"
	EditFlipEffect  = "flip-effect"
	EditSetPriority = "set-priority"
	EditNarrowPath  = "narrow-path"
)

// Edit is one primitive change to the analyzed rule slice. The target is
// addressed by slice index, not priority: a priority collision makes the
// priority ambiguous by definition.
type Edit struct {
	Kind  string
	Index int
	// Exactly one of the following is meaningful, per Kind.
	NewPriority int64
	NewPath     string
	NewEffect   policy.Effect
}

// Repair is one candidate fix for one finding.
type Repair struct {
	// Code and Priority anchor the finding being repaired.
	Code     string
	Priority int64
	Edits    []Edit
	// Distance is the number of primitive edits (the ranking key).
	Distance int
	// Validated reports that re-analysis of the patched slice showed the
	// finding gone and no finding that was not already present.
	Validated bool
	// SemanticsChecked is set when the differential oracle ran (a document
	// was supplied); SemanticsPreserving then reports whether every
	// affected user's permission matrix stayed bit-identical.
	SemanticsChecked    bool
	SemanticsPreserving bool
	Description         string
}

// RepairReport pairs an analysis with the validated repairs per finding.
type RepairReport struct {
	*Report
	Repairs []Repair
	// Rules is the analyzed slice (snapshot order), the coordinate system
	// for Edit.Index.
	Rules []policy.Rule
}

// RepairableCodes lists the finding kinds the engine can synthesize
// repairs for. The structural error kinds (bad-path, unreachable-subject)
// need information the policy does not contain — the intended path or
// subject — and the covert-channel hazard is a §2.2 design warning whose
// resolution is a policy decision, so those are reported but not repaired.
var RepairableCodes = map[string]bool{
	CodeDeadRule:           true,
	CodeConflictOverlap:    true,
	CodeInsertInvisible:    true,
	CodeUnselectableTarget: true,
	CodePriorityCollision:  true,
	CodePriorityDisorder:   true,
}

var (
	repairStage     = obs.Stage("policy_repair")
	repairPlans     = obs.Default().Counter("xmlsec_repair_plans_total")
	repairOffered   = obs.Default().Counter("xmlsec_repair_candidates_total", "outcome", "offered")
	repairRejected  = obs.Default().Counter("xmlsec_repair_candidates_total", "outcome", "rejected")
	repairPreserved = obs.Default().Counter("xmlsec_repair_candidates_total", "outcome", "semantics_preserving")
)

// PlanRepairs analyzes rules and synthesizes validated repairs for every
// repairable finding. doc may be nil: the differential oracle is then
// skipped and repairs carry SemanticsChecked=false.
func PlanRepairs(doc *xmltree.Document, h *subject.Hierarchy, rules []policy.Rule) *RepairReport {
	return PlanRepairsCtx(context.Background(), doc, h, rules)
}

// PlanRepairsCtx is PlanRepairs with request-scoped tracing.
func PlanRepairsCtx(ctx context.Context, doc *xmltree.Document, h *subject.Hierarchy, rules []policy.Rule) *RepairReport {
	_, sp := obs.StartSpanCtx(ctx, "policy_repair", repairStage)
	defer sp.End()
	repairPlans.Inc()
	s := &repairSession{
		doc:   doc,
		h:     h,
		rules: rules,
		memo:  newMemo(h),
		nodes: make(map[string][]string),
		base:  make(map[string]map[string]uint8),
	}
	rep := analyzeRules(h, rules, s.memo)
	s.had = map[string]bool{}
	for _, of := range rep.Findings {
		s.had[of.Code+"@"+fmt.Sprint(of.Priority)] = true
	}
	out := &RepairReport{Report: rep, Rules: rules}
	for _, f := range rep.Findings {
		if !RepairableCodes[f.Code] {
			continue
		}
		cands := s.candidatesFor(f)
		valid := make([]Repair, 0, len(cands))
		for _, c := range cands {
			if s.validate(&f, &c) {
				valid = append(valid, c)
				repairOffered.Inc()
				if c.SemanticsChecked && c.SemanticsPreserving {
					repairPreserved.Inc()
				}
			} else {
				repairRejected.Inc()
			}
		}
		sort.SliceStable(valid, func(i, j int) bool {
			a, b := &valid[i], &valid[j]
			if a.SemanticsChecked && b.SemanticsChecked && a.SemanticsPreserving != b.SemanticsPreserving {
				return a.SemanticsPreserving
			}
			return a.Distance < b.Distance
		})
		out.Repairs = append(out.Repairs, valid...)
	}
	sp.AnnotateInt("findings", int64(len(rep.Findings)))
	sp.AnnotateInt("repairs", int64(len(out.Repairs)))
	return out
}

// Canonical converts the repair report to the shared findings schema.
func (rr *RepairReport) Canonical() *findings.Report {
	out := rr.Report.Canonical()
	for _, r := range rr.Repairs {
		cr := findings.Repair{
			Code:                r.Code,
			Priority:            r.Priority,
			Distance:            r.Distance,
			Validated:           r.Validated,
			SemanticsChecked:    r.SemanticsChecked,
			SemanticsPreserving: r.SemanticsPreserving,
			Description:         r.Description,
		}
		for _, e := range r.Edits {
			ce := findings.RepairEdit{Kind: e.Kind, Index: e.Index}
			if e.Index >= 0 && e.Index < len(rr.Rules) {
				ru := rr.Rules[e.Index]
				ce.Rule = ru.String()
				ce.Priority = ru.Priority
			}
			switch e.Kind {
			case EditSetPriority:
				ce.NewPriority = e.NewPriority
			case EditNarrowPath:
				ce.NewPath = e.NewPath
			case EditFlipEffect:
				ce.NewEffect = e.NewEffect.String()
			}
			cr.Edits = append(cr.Edits, ce)
		}
		out.Repairs = append(out.Repairs, cr)
	}
	return out
}

// ApplyEdits returns a new rule slice with the edits applied. Indices
// address the input slice; deletions are collected and removed last so
// one edit set may mix kinds safely. The result is stable-sorted by
// priority — the normal form Analyze-validated snapshots are stored in —
// which also discharges priority-disorder findings as a side effect.
func ApplyEdits(rules []policy.Rule, edits []Edit) []policy.Rule {
	out := make([]policy.Rule, len(rules))
	copy(out, rules)
	deleted := map[int]bool{}
	for _, e := range edits {
		if e.Index < 0 || e.Index >= len(out) {
			continue
		}
		switch e.Kind {
		case EditDeleteRule:
			deleted[e.Index] = true
		case EditFlipEffect:
			out[e.Index].Effect = e.NewEffect
		case EditSetPriority:
			out[e.Index].Priority = e.NewPriority
		case EditNarrowPath:
			out[e.Index].Path = e.NewPath
		}
	}
	if len(deleted) > 0 {
		kept := out[:0]
		for i, r := range out {
			if !deleted[i] {
				kept = append(kept, r)
			}
		}
		out = kept
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority < out[j].Priority })
	return out
}

// repairSession holds the caches one planning run shares across candidate
// validations: the analysis memo (automata + scopes), per-(path,user) node
// selections, and the original policy's per-user permission masks.
type repairSession struct {
	doc   *xmltree.Document
	h     *subject.Hierarchy
	rules []policy.Rule
	memo  *memo
	// nodes caches Select results keyed by path+"\x00"+user ($USER-free
	// paths select the same nodes for every user but the key is cheap).
	nodes map[string][]string
	// base caches the original slice's permission masks per user.
	base map[string]map[string]uint8
	// had indexes the original report's findings by code@priority, the
	// baseline for the no-new-findings validation gate.
	had map[string]bool
}

// candidatesFor enumerates the unvalidated candidate repairs for one
// finding, cheapest first. Validation prunes them afterwards.
func (s *repairSession) candidatesFor(f Finding) []Repair {
	idx := s.indexOfPriority(f.Priority)
	switch f.Code {
	case CodeDeadRule:
		if idx < 0 {
			return nil
		}
		cands := []Repair{s.deletion(f, idx, "delete the dead rule (its region is decided identically without it)")}
		// Reviving the rule by renumbering it past its shadowers changes
		// what it decides — offered second, validation and the oracle
		// decide whether it is a sensible alternative.
		if len(f.Related) > 0 {
			cands = append(cands, Repair{
				Code: f.Code, Priority: f.Priority, Distance: 1,
				Edits:       []Edit{{Kind: EditSetPriority, Index: idx, NewPriority: s.maxPriority() + 1}},
				Description: "revive the rule by renumbering it after its shadowers (it becomes the latest word on its region)",
			})
		}
		return cands
	case CodeConflictOverlap:
		if idx < 0 || len(f.Related) == 0 {
			return nil
		}
		denyPriority := f.Related[0]
		cands := []Repair{
			s.deletion(f, idx, "delete the accept that reopens the deny"),
			{
				Code: f.Code, Priority: f.Priority, Distance: 1,
				Edits:       []Edit{{Kind: EditFlipEffect, Index: idx, NewEffect: policy.Deny}},
				Description: fmt.Sprintf("flip the accept to a deny (the overlap with deny @%d then resolves the same way)", denyPriority),
			},
		}
		if p, ok := s.freePriorityBelow(denyPriority); ok {
			cands = append(cands, Repair{
				Code: f.Code, Priority: f.Priority, Distance: 1,
				Edits:       []Edit{{Kind: EditSetPriority, Index: idx, NewPriority: p}},
				Description: fmt.Sprintf("move the accept before deny @%d (priority %d), turning the overlap into the idiomatic broad-accept-then-refine shape", denyPriority, p),
			})
		}
		if narrowed, ok := s.narrowAwayFrom(idx, denyPriority); ok {
			cands = append(cands, Repair{
				Code: f.Code, Priority: f.Priority, Distance: 1,
				Edits:       []Edit{{Kind: EditNarrowPath, Index: idx, NewPath: narrowed}},
				Description: fmt.Sprintf("narrow the accept's path to the union branches disjoint from deny @%d", denyPriority),
			})
		}
		return cands
	case CodeInsertInvisible, CodeUnselectableTarget:
		if idx < 0 {
			return nil
		}
		return []Repair{
			s.deletion(f, idx, "delete the write grant no user in scope can exercise"),
			{
				Code: f.Code, Priority: f.Priority, Distance: 1,
				Edits:       []Edit{{Kind: EditFlipEffect, Index: idx, NewEffect: policy.Deny}},
				Description: "make the unexercisable grant an explicit deny, documenting the closed-world default",
			},
		}
	case CodePriorityCollision:
		return s.collisionCandidates(f)
	case CodePriorityDisorder:
		// ApplyEdits normalizes order after any edit set, so an empty edit
		// set is the minimal repair: re-sorting the slice into ascending
		// priority order.
		return []Repair{{
			Code: f.Code, Priority: f.Priority, Distance: 0,
			Edits:       nil,
			Description: "re-sort the snapshot into ascending priority order (no rule changes)",
		}}
	default:
		return nil
	}
}

func (s *repairSession) deletion(f Finding, idx int, why string) Repair {
	return Repair{
		Code: f.Code, Priority: f.Priority, Distance: 1,
		Edits:       []Edit{{Kind: EditDeleteRule, Index: idx}},
		Description: why,
	}
}

// collisionCandidates repairs a duplicated priority. Primary: keep the
// first colliding rule, renumber each later one to the nearest free
// priority above the collision — under the stable tie resolution
// (later-in-slice wins, mirroring Evaluate's >= scan) this preserves the
// relative order of the colliding rules, and when the slots immediately
// above are free it does not reorder them against any other rule either.
// Secondary: delete the later duplicates outright.
func (s *repairSession) collisionCandidates(f Finding) []Repair {
	var idxs []int
	for i, r := range s.rules {
		if r.Priority == f.Priority {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) < 2 {
		return nil
	}
	used := map[int64]bool{}
	for _, r := range s.rules {
		used[r.Priority] = true
	}
	var renumber, deletes []Edit
	next := f.Priority
	for _, i := range idxs[1:] {
		next++
		for used[next] {
			next++
		}
		used[next] = true
		renumber = append(renumber, Edit{Kind: EditSetPriority, Index: i, NewPriority: next})
		deletes = append(deletes, Edit{Kind: EditDeleteRule, Index: i})
	}
	return []Repair{
		{
			Code: f.Code, Priority: f.Priority, Distance: len(renumber), Edits: renumber,
			Description: fmt.Sprintf("renumber the %d later rule(s) at priority %d to the nearest free priorities, restoring the total order", len(renumber), f.Priority),
		},
		{
			Code: f.Code, Priority: f.Priority, Distance: len(deletes), Edits: deletes,
			Description: fmt.Sprintf("delete the %d later duplicate(s) of priority %d", len(deletes), f.Priority),
		},
	}
}

// indexOfPriority locates the unique rule carrying a priority, or -1 when
// absent or ambiguous (a collision finding is repaired by index instead).
func (s *repairSession) indexOfPriority(p int64) int {
	found := -1
	for i, r := range s.rules {
		if r.Priority == p {
			if found >= 0 {
				return -1
			}
			found = i
		}
	}
	return found
}

func (s *repairSession) maxPriority() int64 {
	var max int64
	for _, r := range s.rules {
		if r.Priority > max {
			max = r.Priority
		}
	}
	return max
}

// freePriorityBelow finds the largest unused positive priority strictly
// below p, so a renumbered rule lands as close to its target as possible.
func (s *repairSession) freePriorityBelow(p int64) (int64, bool) {
	used := map[int64]bool{}
	for _, r := range s.rules {
		used[r.Priority] = true
	}
	for q := p - 1; q >= 1; q-- {
		if !used[q] {
			return q, true
		}
	}
	return 0, false
}

// narrowAwayFrom proposes a narrowed path for the rule at idx: keep only
// the top-level union branches whose pattern is disjoint from the rule at
// denyPriority. Only applicable to union paths where at least one branch
// overlaps and at least one does not.
func (s *repairSession) narrowAwayFrom(idx int, denyPriority int64) (string, bool) {
	di := s.indexOfPriority(denyPriority)
	if di < 0 {
		return "", false
	}
	denyC, err := xpath.Compile(s.rules[di].Path)
	if err != nil {
		return "", false
	}
	denyPat := denyC.Pattern()
	branches := splitTopLevelUnion(s.rules[idx].Path)
	if len(branches) < 2 {
		return "", false
	}
	var kept []string
	for _, br := range branches {
		c, err := xpath.Compile(br)
		if err != nil {
			return "", false
		}
		if !overlapAll(c.Pattern(), denyPat) {
			kept = append(kept, br)
		}
	}
	if len(kept) == 0 || len(kept) == len(branches) {
		return "", false
	}
	return strings.Join(kept, " | "), true
}

// splitTopLevelUnion splits an XPath source on '|' at bracket depth zero
// outside string literals. A path without a top-level union comes back as
// a single element.
func splitTopLevelUnion(path string) []string {
	var out []string
	depth := 0
	var quote byte
	start := 0
	for i := 0; i < len(path); i++ {
		ch := path[i]
		if quote != 0 {
			if ch == quote {
				quote = 0
			}
			continue
		}
		switch ch {
		case '\'', '"':
			quote = ch
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, strings.TrimSpace(path[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(path[start:]))
	return out
}

// validate runs both gates over one candidate, filling its Validated and
// semantics fields. A candidate passes when re-analysis of the patched
// slice no longer contains the finding (same code, same origin rule) and
// contains no finding that was not already present in the original
// report. The differential oracle then classifies survivors.
func (s *repairSession) validate(f *Finding, c *Repair) bool {
	patched := ApplyEdits(s.rules, c.Edits)
	// originOf maps a patched rule's priority back to its original
	// priority, so findings can be identified across the renumbering.
	originOf := func(p int64) int64 {
		for _, e := range c.Edits {
			if e.Kind == EditSetPriority && e.NewPriority == p {
				return s.rules[e.Index].Priority
			}
		}
		return p
	}
	rep := analyzeRules(s.h, patched, s.memo)
	for _, pf := range rep.Findings {
		origin := originOf(pf.Priority)
		if pf.Code == f.Code && origin == f.Priority {
			return false // finding survived the edit
		}
		if !s.had[pf.Code+"@"+fmt.Sprint(origin)] {
			return false // edit introduced a new finding
		}
	}
	c.Validated = true
	if s.doc != nil {
		c.SemanticsChecked = true
		c.SemanticsPreserving = s.equivalent(patched, c.Edits)
	}
	return true
}

// equivalent runs the E10 differential oracle restricted to the users an
// edit set can affect: a rule is invisible to users outside the
// isa-closure of its subject (axiom 13), so only users in scope of an
// edited rule need their matrices compared.
func (s *repairSession) equivalent(patched []policy.Rule, edits []Edit) bool {
	affected := map[string]bool{}
	for _, e := range edits {
		if e.Index < 0 || e.Index >= len(s.rules) {
			continue
		}
		users, _ := s.memo.usersOf(s.rules[e.Index].Subject)
		for _, u := range users {
			affected[u] = true
		}
	}
	for u := range affected {
		base, ok := s.base[u]
		if !ok {
			base = s.evalMasks(s.rules, u)
			s.base[u] = base
		}
		got := s.evalMasks(patched, u)
		if len(base) != len(got) {
			return false
		}
		for id, m := range base {
			if got[id] != m {
				return false
			}
		}
	}
	return true
}

// evalMasks mirrors policy.Evaluate's axiom-14 merge over a raw rule
// slice: rules are taken in stable ascending priority order and the
// latest applicable rule wins each (node, privilege) cell, with >= so a
// later-in-slice rule wins a priority tie — exactly the overwrite
// behavior Evaluate's scan has, extended to slices Add would reject.
// Uncompilable or unknown-subject rules are skipped (the analyzer already
// errors on them, and Evaluate could not run them either).
func (s *repairSession) evalMasks(rules []policy.Rule, user string) map[string]uint8 {
	ordered := make([]policy.Rule, len(rules))
	copy(ordered, rules)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Priority < ordered[j].Priority })
	type cell struct {
		priority int64
		effect   policy.Effect
	}
	nPrivs := len(policy.Privileges)
	latest := map[string][]cell{}
	for _, r := range ordered {
		if !s.h.Exists(r.Subject) || !s.h.ISA(user, r.Subject) {
			continue
		}
		ids, ok := s.selectIDs(r.Path, user)
		if !ok {
			continue
		}
		for _, id := range ids {
			c := latest[id]
			if c == nil {
				c = make([]cell, nPrivs)
				latest[id] = c
			}
			if r.Priority >= c[r.Privilege].priority {
				c[r.Privilege] = cell{priority: r.Priority, effect: r.Effect}
			}
		}
	}
	masks := make(map[string]uint8, len(latest))
	for id, cells := range latest {
		var mask uint8
		for _, priv := range policy.Privileges {
			if cells[priv].priority > 0 && cells[priv].effect == policy.Accept {
				mask |= 1 << uint(priv)
			}
		}
		if mask != 0 {
			masks[id] = mask
		}
	}
	return masks
}

// selectIDs caches node selections per (path, user) — path selections are
// rule-set independent, so the cache survives across every candidate the
// session validates.
func (s *repairSession) selectIDs(path, user string) ([]string, bool) {
	key := path + "\x00" + user
	if ids, ok := s.nodes[key]; ok {
		return ids, ids != nil
	}
	c, err := xpath.Compile(path)
	if err != nil {
		s.nodes[key] = nil
		return nil, false
	}
	ns, err := c.Select(s.doc.Root(), xpath.Vars{"USER": xpath.String(user)})
	if err != nil {
		s.nodes[key] = nil
		return nil, false
	}
	ids := make([]string, len(ns))
	for i, n := range ns {
		ids[i] = n.IDString()
	}
	if ids == nil {
		ids = []string{}
	}
	s.nodes[key] = ids
	return ids, true
}

// Fix iteratively applies the best validated repair per finding until the
// slice has no repairable findings or no progress can be made. It returns
// the repaired slice, the repairs applied in order, and the final report.
// A clean input comes back unchanged (zero applied repairs), which is what
// makes xmlsec-lint -fix -write idempotent.
func Fix(doc *xmltree.Document, h *subject.Hierarchy, rules []policy.Rule) ([]policy.Rule, []Repair, *RepairReport) {
	return FixCtx(context.Background(), doc, h, rules)
}

// FixCtx is Fix with request-scoped tracing.
func FixCtx(ctx context.Context, doc *xmltree.Document, h *subject.Hierarchy, rules []policy.Rule) ([]policy.Rule, []Repair, *RepairReport) {
	const maxRounds = 8
	var applied []Repair
	cur := rules
	var rr *RepairReport
	for round := 0; round < maxRounds; round++ {
		rr = PlanRepairsCtx(ctx, doc, h, cur)
		// Choose the best repair per finding anchor, skipping any whose
		// edits touch a rule another chosen repair already edits (indices
		// are only valid against the slice this round planned over).
		touched := map[int]bool{}
		chosen := map[string]bool{}
		var edits []Edit
		progress := false
		for _, r := range rr.Repairs {
			anchor := r.Code + "@" + fmt.Sprint(r.Priority)
			if chosen[anchor] {
				continue
			}
			conflict := false
			for _, e := range r.Edits {
				if touched[e.Index] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			chosen[anchor] = true
			for _, e := range r.Edits {
				touched[e.Index] = true
			}
			edits = append(edits, r.Edits...)
			applied = append(applied, r)
			progress = true
		}
		if !progress {
			break
		}
		cur = ApplyEdits(cur, edits)
	}
	if len(applied) > 0 {
		// Report against the final state so callers see what remains.
		rr = PlanRepairsCtx(ctx, doc, h, cur)
	}
	return cur, applied, rr
}
