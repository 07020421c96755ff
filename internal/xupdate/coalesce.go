package xupdate

// Coalesce collapses a delta sequence into an equivalent, usually shorter
// one, for the group-commit path: a commit round merges the deltas of every
// write in the batch and publishes one coalesced sequence with the new
// generation, so downstream incremental consumers (view.Maintainer, cache
// invalidation) do work proportional to the net change, not the raw op
// count.
//
// Soundness rests on how consumers interpret deltas: every non-remove delta
// is re-derived from the *final* document (the maintainer rescores the
// subtree rooted at NodeID against the post-batch source and ignores
// NewLabel beyond treating the node as touched), while a remove drives
// view scrubbing. Hence:
//
//   - removes are kept verbatim, in order — their RemovedIDs snapshots are
//     the only record of identifiers that left the tree (identifiers may be
//     reused by later inserts, so removes are never merged or dropped);
//   - a relabel or insert whose NodeID is swept away by a LATER remove is
//     dead — the node is gone from the final document (a consumer would hit
//     the defensive drop path) — unless a later delta re-touches the same
//     identifier after reuse, which appears as its own surviving entry;
//   - of several surviving relabels on one identifier, only the last
//     matters: the maintainer reads the final label from the document.
//
// The result preserves the relative order of surviving deltas. The input
// slice is not modified.
func Coalesce(deltas []Delta) []Delta {
	if len(deltas) <= 1 {
		return deltas
	}
	keep := make([]bool, len(deltas))
	// removed holds identifiers swept by a remove seen later than the
	// position being examined; lastTouch holds identifiers already kept by
	// a later relabel/insert (keep-last for duplicate touches).
	removed := make(map[string]struct{})
	lastTouch := make(map[string]struct{})
	kept := 0
	for i := len(deltas) - 1; i >= 0; i-- {
		d := deltas[i]
		switch d.Kind {
		case DeltaRemove:
			keep[i] = true
			kept++
			for _, id := range d.RemovedIDs {
				removed[id] = struct{}{}
				// A removal severs any link to earlier touches of a
				// (possibly reused) identifier: earlier deltas on it are
				// dead regardless of what was kept later.
				delete(lastTouch, id)
			}
		case DeltaRelabel, DeltaInsert:
			if _, gone := removed[d.NodeID]; gone {
				continue
			}
			if _, dup := lastTouch[d.NodeID]; dup {
				continue
			}
			lastTouch[d.NodeID] = struct{}{}
			keep[i] = true
			kept++
		default:
			keep[i] = true
			kept++
		}
	}
	if kept == len(deltas) {
		return deltas
	}
	out := make([]Delta, 0, kept)
	for i, k := range keep {
		if k {
			out = append(out, deltas[i])
		}
	}
	return out
}
