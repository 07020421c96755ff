package core

import (
	"time"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// Telemetry: one histogram point per commit round (how many writes were
// coalesced into one published generation, and how long the round took
// end to end), plus the published sequence number and the age the
// replaced generation reached — the write-side counterpart of the
// lock-free read story.
var (
	commitBatchSize = obs.Default().Histogram("xmlsec_commit_batch_size", obs.SizeBuckets)
	commitLatency   = obs.Default().Histogram("xmlsec_commit_latency_seconds", obs.LatencyBuckets)
	generationSeq   = obs.Default().Gauge("xmlsec_generation_seq")
	generationAge   = obs.Default().Histogram("xmlsec_generation_age_seconds", obs.LatencyBuckets)
)

// commitReq is one write waiting in the group-commit queue.
type commitReq struct {
	// apply runs on the leader goroutine against the round's scratch
	// state; it communicates results to the submitter through captured
	// variables (the done close is the happens-before edge).
	apply func(c *commitCtx)
	done  chan struct{}
}

// commitCtx is the scratch state of one commit round: the base generation
// plus lazily cloned components. A request mutates the clone returned by
// mutableDoc/mutableSubjects/mutablePolicy; untouched components are
// carried over by pointer into the next generation (an admin-only round
// shares the document, a write-only round shares policy and subjects).
type commitCtx struct {
	db   *Database
	base *generation

	// doc is the scratch document clone; nil until the first mutableDoc
	// (or a LoadXML replacement). A secured write calls mutableDoc only
	// just before its first change, so a round of refused or no-op
	// writes clones nothing; otherwise the clone cost is paid once per
	// round and amortized across every write in the batch.
	doc      *xmltree.Document
	subjects *subject.Hierarchy
	policy   *policy.Policy
	docGen   uint64
	epoch    uint64
	// adminChanged is set by a *successful* admin operation; without it
	// the round's subject/policy clones are discarded at publish.
	adminChanged bool
	// docReset marks a LoadXML replacement this round: docGen moved and
	// the delta log restarts.
	docReset bool
	// batches are the delta batches recorded by successful updates this
	// round, in order (post-replacement only, when docReset is set).
	batches []deltaBatch
}

// mutableDoc returns the round's scratch document, cloning the base
// snapshot on first use.
func (c *commitCtx) mutableDoc() *xmltree.Document {
	if c.doc == nil {
		c.doc = c.base.doc.Clone()
	}
	return c.doc
}

// curDoc returns the document state a request in this round must read:
// the scratch clone once one was taken, the frozen base otherwise. It
// never clones.
func (c *commitCtx) curDoc() *xmltree.Document {
	if c.doc != nil {
		return c.doc
	}
	return c.base.doc
}

// mutableSubjects returns the round's scratch hierarchy, cloning on first
// use.
func (c *commitCtx) mutableSubjects() *subject.Hierarchy {
	if c.subjects == nil {
		c.subjects = c.base.subjects.Clone()
	}
	return c.subjects
}

// mutablePolicy returns the round's scratch policy, cloning on first use.
func (c *commitCtx) mutablePolicy() *policy.Policy {
	if c.policy == nil {
		c.policy = c.base.policy.Clone()
	}
	return c.policy
}

// curSubjects returns the hierarchy a request in this round must read:
// the scratch clone if an earlier request in the round already touched
// it, the base otherwise.
func (c *commitCtx) curSubjects() *subject.Hierarchy {
	if c.subjects != nil {
		return c.subjects
	}
	return c.base.subjects
}

// curPolicy is curSubjects for the policy.
func (c *commitCtx) curPolicy() *policy.Policy {
	if c.policy != nil {
		return c.policy
	}
	return c.base.policy
}

// pristine reports whether the round's state still equals its base
// generation: no earlier request in the round replaced or mutated the
// document, or touched the policy or the hierarchy (a failed admin
// operation that cloned one counts too; pristine errs on the safe side).
func (c *commitCtx) pristine() bool {
	return !c.docReset && c.policy == nil && c.subjects == nil &&
		(c.doc == nil || c.doc.Version() == c.base.ver())
}

// submit enqueues fn into the group-commit queue and blocks until the
// round containing it has been published (or discarded, for a round of
// failures). The first writer to arrive becomes the leader: it drains the
// queue in rounds, applying each round's requests sequentially with no
// lock held, publishing ONE generation per round, and closing every done
// channel after the atomic store — so a writer that returns always sees
// its own write in the next gen() load (read-your-writes).
func (db *Database) submit(fn func(c *commitCtx)) {
	req := &commitReq{apply: fn, done: make(chan struct{})}
	db.commitMu.Lock()
	db.queue = append(db.queue, req)
	if db.leader {
		db.commitMu.Unlock()
		<-req.done
		return
	}
	db.leader = true
	for len(db.queue) > 0 {
		round := db.queue
		db.queue = nil
		db.commitMu.Unlock()
		db.commitRound(round)
		db.commitMu.Lock()
	}
	db.leader = false
	db.commitMu.Unlock()
	// Our own request was in the first round this leader processed.
	<-req.done
}

// commitRound applies one round of queued requests against a shared
// scratch context, publishes the resulting generation, then releases the
// submitters. It runs on the leader goroutine with no lock held.
func (db *Database) commitRound(round []*commitReq) {
	start := time.Now()
	base := db.current.Load()
	c := &commitCtx{db: db, base: base, docGen: base.docGen, epoch: base.epoch}
	for _, r := range round {
		r.apply(c)
	}
	db.publish(c)
	commitBatchSize.Observe(float64(len(round)))
	commitLatency.Observe(time.Since(start).Seconds())
	for _, r := range round {
		close(r.done)
	}
}

// publish builds the next generation from the round's scratch state and
// stores it. A round where nothing actually changed (every request failed
// or was a no-op) publishes nothing and discards its speculative clones.
func (db *Database) publish(c *commitCtx) {
	base := c.base
	docMoved := c.doc != nil && (c.docReset || c.doc.Version() != base.ver())
	if !docMoved && !c.adminChanged {
		return
	}
	next := &generation{
		seq:      base.seq + 1,
		doc:      base.doc,
		subjects: base.subjects,
		policy:   base.policy,
		docGen:   c.docGen,
		epoch:    c.epoch,
		born:     time.Now(),
		log:      base.log,
	}
	if c.adminChanged {
		if c.subjects != nil {
			next.subjects = c.subjects
		}
		if c.policy != nil {
			next.policy = c.policy
		}
	}
	if docMoved {
		next.doc = c.doc
		next.doc.Freeze()
		if c.docReset {
			next.log = nil
		}
		next.log = appendTrimmed(next.log, mergeRoundBatches(c.batches))
	}
	generationSeq.Set(int64(next.seq))
	generationAge.Observe(time.Since(base.born).Seconds())
	db.current.Store(next)
}

// mergeRoundBatches collapses the round's batches into one coalesced
// batch per contiguous version run. Version gaps between batches (a
// failed executor moved the version without recording deltas) are
// preserved as gaps, so deltaChain still refuses to patch across them.
func mergeRoundBatches(batches []deltaBatch) []deltaBatch {
	if len(batches) == 0 {
		return nil
	}
	var out []deltaBatch
	runFrom, runTo := batches[0].fromVer, batches[0].toVer
	var run []xupdate.Delta
	run = append(run, batches[0].deltas...)
	flush := func() {
		out = append(out, deltaBatch{fromVer: runFrom, toVer: runTo, deltas: xupdate.Coalesce(run)})
	}
	for _, b := range batches[1:] {
		if b.fromVer != runTo {
			flush()
			runFrom, run = b.fromVer, nil
		}
		runTo = b.toVer
		run = append(run, b.deltas...)
	}
	flush()
	return out
}

// appendTrimmed appends the round's merged batches to the shared-backing
// log and trims to deltaLogCap by reslicing (never by copying down —
// published generations keep indexing the same backing slots).
func appendTrimmed(log []deltaBatch, batches []deltaBatch) []deltaBatch {
	log = append(log, batches...)
	if len(log) > deltaLogCap {
		log = log[len(log)-deltaLogCap:]
	}
	return log
}
