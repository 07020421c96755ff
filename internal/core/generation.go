package core

import (
	"sync"
	"time"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// generation is one immutable snapshot of the database: the document, the
// subject hierarchy and the policy, published together by a single atomic
// store (Database.current). Readers load the pointer once, pin the
// generation for the whole request, and never take a lock — every field is
// frozen before publication (the document literally so, via Freeze; the
// hierarchy and policy by the copy-on-write discipline of the commit loop,
// which mutates clones and never a published component).
//
// Generations do not link to their predecessors: a prev chain would retain
// up to deltaLogCap full document snapshots. The incremental-maintenance
// history lives in log instead — an append-only slice whose backing array is
// shared between consecutive generations. That sharing is race-free
// because only the commit leader appends, always to the latest
// generation's log, each backing slot is written exactly once, and the
// write happens-before the atomic Store that publishes the slot; readers
// only index below their own slice length.
type generation struct {
	seq uint64
	doc *xmltree.Document // frozen
	// subjects and policy are read-only once published; admin commits
	// clone-and-swap them (see commitCtx).
	subjects *subject.Hierarchy
	policy   *policy.Policy
	// docGen distinguishes document *replacements* (LoadXML) from
	// mutations: a fresh document restarts its version counter, so the
	// version alone cannot key session caches.
	docGen uint64
	// epoch counts policy/hierarchy changes, keying rule caches and
	// session permission caches.
	epoch uint64
	born  time.Time
	// log is the bounded ring of recent update batches (oldest first),
	// consumed by session caches to patch permissions incrementally
	// instead of re-deriving them (see internal/view/incremental.go).
	log []deltaBatch

	// rules is the cross-user RuleCache for this generation's policy and
	// document, built lazily by the first cold evaluation; RuleCache is
	// internally synchronized, and tying it to the generation makes
	// invalidation structural (a new generation starts a new cache)
	// instead of a compare-and-swap on (gen, version, epoch).
	rulesOnce sync.Once
	rules     *policy.RuleCache
}

// ver returns the document version of the snapshot.
func (g *generation) ver() uint64 { return g.doc.Version() }

// ruleCache returns the generation's shared rule cache, creating it on
// first use.
func (g *generation) ruleCache() *policy.RuleCache {
	g.rulesOnce.Do(func() { g.rules = policy.NewRuleCache(g.policy, g.doc) })
	return g.rules
}

// deltaBatch records the coalesced structural changes of one group-commit
// round (or one replayed operation), spanning document versions
// (fromVer, toVer].
type deltaBatch struct {
	fromVer, toVer uint64
	deltas         []xupdate.Delta
}

// deltaLogCap bounds the delta log; sessions further behind than the
// oldest retained batch rebuild from scratch.
const deltaLogCap = 256

// deltaChain collects the contiguous delta batches leading from document
// version from up to this generation's version. It returns ok=false when
// the log has a gap — the oldest batches were trimmed, or an update
// mutated the document without recording a batch (e.g. an executor error
// after partial application).
func (g *generation) deltaChain(from uint64) ([][]xupdate.Delta, bool) {
	cur := from
	var out [][]xupdate.Delta
	for _, b := range g.log {
		if b.toVer <= cur {
			continue
		}
		if b.fromVer != cur {
			return nil, false
		}
		out = append(out, b.deltas)
		cur = b.toVer
	}
	if cur != g.ver() {
		return nil, false
	}
	return out, true
}

// gen returns the current generation. The single atomic load is the whole
// read-side synchronization protocol: callers pin the result in a local
// and use it for the entire request, giving snapshot-isolated, lock-free
// reads that never block on writers.
func (db *Database) gen() *generation { return db.current.Load() }

// install publishes a wholesale replacement generation from construction
// paths (New, Open) before the database serves concurrent requests. The
// document is frozen here; subjects and policy must not be retained
// mutable by the caller.
func (db *Database) install(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy) {
	next := &generation{
		doc:      doc,
		subjects: h,
		policy:   pol,
		born:     time.Now(),
	}
	if prev := db.current.Load(); prev != nil {
		next.seq = prev.seq + 1
		next.docGen = prev.docGen + 1
		next.epoch = prev.epoch + 1
	}
	doc.Freeze()
	db.current.Store(next)
}
