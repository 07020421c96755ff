package main

import (
	"time"

	"securexml/internal/obs"
	"securexml/internal/view"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// regDelta accumulates the change of the program's obs.Default() registry
// across the traced segments, keyed by series id.
type regDelta struct {
	counter map[string]float64
	hcount  map[string]float64
	hsum    map[string]float64 // seconds for latency histograms
}

func newRegDelta() *regDelta {
	return &regDelta{counter: map[string]float64{}, hcount: map[string]float64{}, hsum: map[string]float64{}}
}

func (d *regDelta) add(before, after *obs.Snapshot) {
	c0 := make(map[string]uint64, len(before.Counters))
	for _, c := range before.Counters {
		c0[c.ID] = c.Value
	}
	for _, c := range after.Counters {
		d.counter[c.ID] += float64(c.Value - c0[c.ID])
	}
	type hs struct {
		n   uint64
		sum float64
	}
	h0 := make(map[string]hs, len(before.Histograms))
	for _, h := range before.Histograms {
		h0[h.ID] = hs{h.Count, h.Sum}
	}
	for _, h := range after.Histograms {
		d.hcount[h.ID] += float64(h.Count - h0[h.ID].n)
		d.hsum[h.ID] += h.Sum - h0[h.ID].sum
	}
}

// stage returns the count and total milliseconds of one pipeline stage.
func (d *regDelta) stage(name string) (n, ms float64) {
	return d.hist(obs.StageMetric + `{stage="` + name + `"}`)
}

func (d *regDelta) hist(id string) (n, ms float64) {
	return d.hcount[id], d.hsum[id] * 1e3
}

func (d *regDelta) meanMS(stage string) float64 {
	n, ms := d.stage(stage)
	return ratio(ms, n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sessionStages are the outermost core spans of each endpoint; childStages
// are the spans nested inside them, which never nest in one another.
// Journal appends run after session_apply ends, so they count as core time
// of their own.
var (
	sessionStages = []string{"session_query", "session_query_value", "session_view", "session_transform", "session_apply"}
	childStages   = []string{"policy_evaluate", "policy_evaluate_shared", "view_materialize", "view_incremental", "xpath_eval", "xupdate_apply"}
)

const journalHist = "xmlsec_journal_commit_seconds"

// endToEnd reports the end-to-end metrics of the untraced segments.
func endToEnd(un summary, setupS, heapMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_rps":   {un.tput, "1/s"},
		"latency_p50_ms":   {un.p50, "ms"},
		"latency_p99_ms":   {un.p99, "ms"},
		"query_p50_ms":     {un.epP50[epQuery], "ms"},
		"value_p50_ms":     {un.epP50[epValue], "ms"},
		"view_p50_ms":      {un.epP50[epView], "ms"},
		"transform_p50_ms": {un.epP50[epTransform], "ms"},
		"heap_live_mb":     {heapMB, "MB"},
	}
}

// attribution splits the mean client latency of the traced segments: the
// core's stage time per request (session stages plus journal appends), the
// part of it no child stage covers, and the server's remainder (HTTP,
// routing, session lookup, response writing, loopback transfer).
type attribution struct {
	clientMS, coreMS, coreSelfMS, serverSelfMS float64
}

func attribute(d *regDelta, tr summary) attribution {
	var top, child float64
	for _, s := range sessionStages {
		_, ms := d.stage(s)
		top += ms
	}
	for _, s := range childStages {
		_, ms := d.stage(s)
		child += ms
	}
	_, jms := d.hist(journalHist)
	n := float64(tr.n)
	a := attribution{clientMS: tr.meanMS, coreMS: ratio(top+jms, n), coreSelfMS: ratio(top-child, n)}
	a.serverSelfMS = a.clientMS - a.coreMS
	return a
}

// xmltreeTimes are timed public xmltree calls on the workload document.
type xmltreeTimes struct {
	cloneMS, serializeMS float64
}

// sink keeps timed results alive.
var sink any

// timeXmltree times Document.Clone of the workload document and
// Document.XML of a doctor's view of it, medians of several calls.
func timeXmltree(or *oracle) (xmltreeTimes, error) {
	const reps = 7
	var clones, sers []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		sink = or.doc.Clone()
		clones = append(clones, msSince(t))
	}
	pm, err := or.pol.Evaluate(or.doc, or.h, "laporte")
	if err != nil {
		return xmltreeTimes{}, err
	}
	v := view.Materialize(or.doc, pm)
	for i := 0; i < reps; i++ {
		t := time.Now()
		sink = v.Doc.XML()
		sers = append(sers, msSince(t))
	}
	return xmltreeTimes{cloneMS: median(clones), serializeMS: median(sers)}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// layerMetrics derives every per-layer metric from the traced segments:
// client spans, registry deltas, runtime statistics and the timed calls.
func layerMetrics(w *window, tr, un summary, setups []setupTimes, xt xmltreeTimes) map[string]metric {
	d := w.reg
	n := float64(tr.n)
	a := attribute(d, tr)
	ms := func(v float64) metric { return metric{v, "ms"} }
	count := func(v float64) metric { return metric{v, "count"} }
	share := func(v float64) metric { return metric{v, "ratio"} }
	stageCount := func(s string) metric { c, _ := d.stage(s); return count(c) }

	tiers := []float64{
		d.counter[`xmlsec_query_tier_total{tier="rewrite"}`],
		d.counter[`xmlsec_query_tier_total{tier="qfilter"}`],
		d.counter[`xmlsec_query_tier_total{tier="view"}`],
	}
	tiered := tiers[0] + tiers[1] + tiers[2]
	hits := d.counter["xmlsec_view_cache_hits_total"]
	cold := d.counter[`xmlsec_view_cache_misses_total{reason="cold"}`]
	docMiss := d.counter[`xmlsec_view_cache_misses_total{reason="doc_version"}`]
	epochMiss := d.counter[`xmlsec_view_cache_misses_total{reason="policy_epoch"}`]
	incApplied := d.counter["xmlsec_view_incremental_applied_total"]
	rounds, roundMS := d.hist("xmlsec_commit_latency_seconds")
	batches, batchSum := d.hcount["xmlsec_commit_batch_size"], d.hsum["xmlsec_commit_batch_size"]
	rcHits, rcMiss := d.counter["xmlsec_policy_rulecache_hits_total"], d.counter["xmlsec_policy_rulecache_misses_total"]
	applied := d.counter[`xmlsec_xupdate_nodes_total{result="applied"}`]
	skipped := d.counter[`xmlsec_xupdate_nodes_total{result="skipped"}`]
	appends, appendMS := d.hist(journalHist)
	roundMean := ratio(roundMS, rounds)
	evalN, evalMS := d.stage("policy_evaluate")
	sharedN, sharedMS := d.stage("policy_evaluate_shared")

	return map[string]metric{
		"client.mean_ms":          ms(a.clientMS),
		"client.query_p99_ms":     ms(tr.epP99[epQuery]),
		"client.value_p99_ms":     ms(tr.epP99[epValue]),
		"client.view_p99_ms":      ms(tr.epP99[epView]),
		"client.transform_p99_ms": ms(tr.epP99[epTransform]),
		"client.update_p50_ms":    ms(tr.epP50[epUpdate]),
		"client.update_p99_ms":    ms(tr.epP99[epUpdate]),
		"client.error_rate":       share(ratio(float64(tr.failed), n)),

		"server.self_ms":    ms(a.serverSelfMS),
		"server.view_bytes": {tr.viewBytes, "bytes"},

		"core.stage_ms":     ms(a.coreMS),
		"core.self_ms":      ms(a.coreSelfMS),
		"core.query_ms":     ms(d.meanMS("session_query")),
		"core.value_ms":     ms(d.meanMS("session_query_value")),
		"core.view_ms":      ms(d.meanMS("session_view")),
		"core.transform_ms": ms(d.meanMS("session_transform")),
		"core.tier_rewrite": share(ratio(tiers[0], tiered)),
		"core.tier_qfilter": share(ratio(tiers[1], tiered)),
		"core.tier_view":    share(ratio(tiers[2], tiered)),

		"core.view_hit_ratio":  share(ratio(hits, hits+cold+docMiss+epochMiss+incApplied)),
		"core.view_miss_cold":  count(cold),
		"core.view_miss_doc":   count(docMiss),
		"core.view_miss_epoch": count(epochMiss),

		"core.update_ms":         ms(d.meanMS("session_update")),
		"core.commit_rounds":     count(rounds),
		"core.commit_batch_mean": count(ratio(batchSum, batches)),
		"core.commit_round_ms":   ms(roundMean),
		"core.generations":       count(float64(w.gens)),

		"rewrite.fallback_rule_fragment":  count(d.counter[`xmlsec_rewrite_fallback_total{reason="rule_fragment"}`]),
		"rewrite.fallback_eval_error":     count(d.counter[`xmlsec_rewrite_fallback_total{reason="eval_error"}`]),
		"rewrite.fallback_node_set_value": count(d.counter[`xmlsec_rewrite_fallback_total{reason="nodeset_value"}`]),
		"policy.evaluate_count":           count(evalN),
		"policy.evaluate_ms":              ms(ratio(evalMS, evalN)),
		"policy.evaluate_shared_count":    count(sharedN),
		"policy.evaluate_shared_ms":       ms(ratio(sharedMS, sharedN)),
		"policy.rulecache_hit_ratio":      share(ratio(rcHits, rcHits+rcMiss)),
		"policy.rule_evals_per_req":       count(ratio(d.counter["xmlsec_policy_rule_evals_total"], n)),
		"view.materialize_count":          stageCount("view_materialize"),
		"view.materialize_ms":             ms(d.meanMS("view_materialize")),
		"view.nodes_per_materialize":      count(ratio(d.counter["xmlsec_view_nodes_total"], d.counter["xmlsec_view_materializations_total"])),
		"view.incremental_count":          stageCount("view_incremental"),
		"view.incremental_ms":             ms(d.meanMS("view_incremental")),
		"view.incremental_fallback":       count(d.counter[`xmlsec_view_incremental_fallback_total{reason="ineligible"}`] + d.counter[`xmlsec_view_incremental_fallback_total{reason="gap"}`] + d.counter[`xmlsec_view_incremental_fallback_total{reason="error"}`]),
		"xpath.eval_count":                stageCount("xpath_eval"),
		"xpath.eval_ms":                   ms(d.meanMS("xpath_eval")),
		"access.apply_ms":                 ms(d.meanMS("xupdate_apply")),
		"access.applied_ratio":            share(ratio(applied, applied+skipped)),
		"journal.append_ms":               ms(ratio(appendMS, appends)),
		"journal.bytes_per_write":         {ratio(d.counter["xmlsec_journal_appended_bytes_total"], appends), "bytes"},
		"xmltree.clone_ms":                ms(xt.cloneMS),
		"xmltree.clone_share":             share(ratio(xt.cloneMS, roundMean)),
		"xmltree.serialize_ms":            ms(xt.serializeMS),
		"setup.load_s":                    {medianOf(setups, func(s setupTimes) time.Duration { return s.load }), "s"},
		"setup.policy_s":                  {medianOf(setups, func(s setupTimes) time.Duration { return s.policy }), "s"},
		"setup.warm_s":                    {medianOf(setups, func(s setupTimes) time.Duration { return s.warm }), "s"},
		"runtime.alloc_kb_per_req":        {ratio(float64(w.alloc)/1024, n), "KiB"},
		"runtime.gc_cycles":               count(float64(w.gcs)),
		"runtime.gc_pause_ms":             ms(float64(w.pauseNS) / 1e6),
		"runtime.heap_peak_mb":            {float64(w.heapPeak) / (1 << 20), "MB"},
		"trace.overhead_pct":              {100 * ratio(un.tput-tr.tput, un.tput), "%"},
	}
}

// medianOf is the median of one setup component, in seconds.
func medianOf(setups []setupTimes, part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = part(s).Seconds()
	}
	return median(xs)
}
