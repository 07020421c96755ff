// The obs experiment (B10) drives a mixed query/update workload through the
// full session pipeline with the telemetry registry reset at the start, then
// emits the registry snapshot as BENCH_obs.json: ops/sec, per-stage latency
// quantiles, view-cache effectiveness and decision counters. A separate
// -validate mode checks an emitted file against the schema so CI can smoke
// the whole loop.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"securexml/internal/core"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/workload"
	"securexml/internal/xupdate"
)

// obsSchema versions the report layout for the validator and CI. v2 adds
// the tracing-off vs tracing-on overhead comparison.
const obsSchema = "securexml/bench-obs/v2"

// ObsStage is one pipeline stage's latency summary, in seconds.
type ObsStage struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Sum   float64 `json:"sum"`
}

// ObsCache summarizes the session view cache.
type ObsCache struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// ObsTracing compares the same workload with request tracing off (no
// trace in the context — the production default outside the HTTP server)
// and on (one trace per operation through a Tracer).
type ObsTracing struct {
	OffOpsPerSec float64 `json:"off_ops_per_sec"`
	OnOpsPerSec  float64 `json:"on_ops_per_sec"`
	// OverheadPct is the throughput lost with tracing on, in percent of
	// the tracing-off rate (negative means noise made the traced pass
	// faster).
	OverheadPct float64 `json:"overhead_pct"`
	// Traces is how many finished traces the ring retained (capped at the
	// ring capacity).
	Traces int `json:"traces"`
}

// ObsConfig records how the workload was sized.
type ObsConfig struct {
	Patients int  `json:"patients"`
	Iters    int  `json:"iters"`
	Quick    bool `json:"quick"`
}

// ObsReport is the emitted document.
type ObsReport struct {
	Schema         string              `json:"schema"`
	Config         ObsConfig           `json:"config"`
	ElapsedSeconds float64             `json:"elapsed_seconds"`
	Ops            int                 `json:"ops"`
	OpsPerSec      float64             `json:"ops_per_sec"`
	Stages         map[string]ObsStage `json:"stages"`
	Cache          ObsCache            `json:"cache"`
	Decisions      map[string]uint64   `json:"decisions"`
	Counters       map[string]uint64   `json:"counters"`
	Tracing        ObsTracing          `json:"tracing"`
}

// obsStages are the pipeline stages the report (and CI) must cover.
var obsStages = []string{"view_materialize", "xpath_eval", "xupdate_apply"}

// obsDatabase builds a core database over the synthetic hospital document
// with the paper's role tree and axiom-13-style policy.
func obsDatabase(patients int) (*core.Database, error) {
	d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: 1})
	if err != nil {
		return nil, err
	}
	db := core.New()
	steps := []error{
		db.LoadXMLString(workload.XML(d)),
		db.AddRole("staff"),
		db.AddRole("secretary", "staff"),
		db.AddRole("doctor", "staff"),
		db.AddRole("epidemiologist", "staff"),
		db.AddUser("beaufort", "secretary"),
		db.AddUser("laporte", "doctor"),
		db.AddUser("richard", "epidemiologist"),
		db.Grant(policy.Read, "/descendant-or-self::node()", "staff"),
		db.Revoke(policy.Read, "//diagnosis/node()", "secretary"),
		db.Grant(policy.Position, "//diagnosis/node()", "secretary"),
		db.Grant(policy.Insert, "//diagnosis", "doctor"),
		db.Grant(policy.Update, "//diagnosis/node()", "doctor"),
		db.Grant(policy.Delete, "//diagnosis/node()", "doctor"),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// obsOp runs one workload operation, under a per-operation trace when a
// tracer is given (the tracing-on pass) and untraced otherwise.
func obsOp(tracer *obs.Tracer, name string, f func(context.Context) error) error {
	ctx := context.Background()
	if tracer != nil {
		var t *obs.Trace
		ctx, t = tracer.StartTrace(ctx, name)
		defer t.Finish()
	}
	return f(ctx)
}

// obsWorkload drives the mixed query/update loop against db and returns
// how many operations ran and how long the loop took. With a tracer every
// operation runs under its own trace; with nil the context carries no
// trace, which is the production default outside the HTTP server.
func obsWorkload(db *core.Database, patients, iters int, tracer *obs.Tracer) (int, time.Duration, error) {
	doctor, err := db.Session("laporte")
	if err != nil {
		return 0, 0, err
	}
	secretary, err := db.Session("beaufort")
	if err != nil {
		return 0, 0, err
	}
	ops := 0
	start := time.Now()
	for i := 0; i < iters; i++ {
		err := obsOp(tracer, "bench_query", func(ctx context.Context) error {
			_, err := doctor.QueryCtx(ctx, "//diagnosis")
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		ops++
		if i%5 == 0 {
			err := obsOp(tracer, "bench_value", func(ctx context.Context) error {
				_, err := secretary.QueryValueCtx(ctx, "count(//service)")
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			ops++
		}
		// Every 7th iteration pulls the materialized view, the view
		// cache's most direct client (queries and writes read the same
		// cache entry's maintained permissions).
		if i%7 == 0 {
			err := obsOp(tracer, "bench_view", func(ctx context.Context) error {
				_, err := doctor.ViewCtx(ctx)
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			ops++
		}
		// Every 10th iteration writes, bumping the document version: the
		// steady state is ~90% cache hits on the read side.
		if i%10 == 9 {
			op := &xupdate.Op{
				Kind:     xupdate.Update,
				Select:   fmt.Sprintf("/patients/p%d/diagnosis", i%patients),
				NewValue: fmt.Sprintf("revised-%d", i),
			}
			err := obsOp(tracer, "bench_update", func(ctx context.Context) error {
				_, err := doctor.UpdateCtx(ctx, op)
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			ops++
		}
	}
	return ops, time.Since(start), nil
}

// runObs executes the workload and returns the report. The registry is
// process-global, so it is reset first; the experiment therefore cannot run
// concurrently with other registry users.
func runObs(patients, iters int) (*ObsReport, error) {
	db, err := obsDatabase(patients)
	if err != nil {
		return nil, err
	}
	obs.Default().Reset()
	ops, elapsed, err := obsWorkload(db, patients, iters, nil)
	if err != nil {
		return nil, err
	}

	snap := obs.Default().Snapshot()
	rep := &ObsReport{
		Schema:         obsSchema,
		Config:         ObsConfig{Patients: patients, Iters: iters, Quick: quick},
		ElapsedSeconds: elapsed.Seconds(),
		Ops:            ops,
		OpsPerSec:      float64(ops) / elapsed.Seconds(),
		Stages:         make(map[string]ObsStage),
		Decisions:      make(map[string]uint64),
		Counters:       make(map[string]uint64),
	}
	for _, h := range snap.Histograms {
		if h.Name == obs.StageMetric {
			rep.Stages[h.Labels["stage"]] = ObsStage{
				Count: h.Count, P50: h.P50, P95: h.P95, P99: h.P99, Sum: h.Sum,
			}
		}
	}
	for _, c := range snap.Counters {
		switch c.Name {
		case "xmlsec_view_cache_hits_total":
			rep.Cache.Hits += c.Value
		case "xmlsec_view_cache_misses_total":
			rep.Cache.Misses += c.Value
		case "xmlsec_policy_decisions_total":
			rep.Decisions[c.Labels["effect"]+"/"+c.Labels["privilege"]] = c.Value
		default:
			rep.Counters[c.ID] = c.Value
		}
	}
	if total := rep.Cache.Hits + rep.Cache.Misses; total > 0 {
		rep.Cache.HitRate = float64(rep.Cache.Hits) / float64(total)
	}

	// Tracing-on pass: the same workload on a fresh database (so both
	// passes start cold), one trace per operation. The registry snapshot
	// above is untouched — it describes the tracing-off pass only.
	tracedDB, err := obsDatabase(patients)
	if err != nil {
		return nil, err
	}
	tracer := obs.NewTracer(0, 0, nil)
	opsOn, elapsedOn, err := obsWorkload(tracedDB, patients, iters, tracer)
	if err != nil {
		return nil, err
	}
	rep.Tracing = ObsTracing{
		OffOpsPerSec: rep.OpsPerSec,
		OnOpsPerSec:  float64(opsOn) / elapsedOn.Seconds(),
		Traces:       len(tracer.Summaries()),
	}
	rep.Tracing.OverheadPct = (1 - rep.Tracing.OnOpsPerSec/rep.Tracing.OffOpsPerSec) * 100
	return rep, nil
}

// bObs runs the experiment, prints the human table and writes the report.
func bObs() error {
	header("B10 — telemetry snapshot: mixed workload through the instrumented pipeline")
	patients, iters := 200, 2000
	if quick {
		patients, iters = 50, 200
	}
	if obsIters > 0 {
		iters = obsIters
	}
	rep, err := runObs(patients, iters)
	if err != nil {
		return err
	}
	fmt.Printf("patients=%d iters=%d ops=%d elapsed=%.3fs ops/sec=%.0f\n",
		patients, iters, rep.Ops, rep.ElapsedSeconds, rep.OpsPerSec)
	fmt.Printf("view cache: hits=%d misses=%d hit-rate=%.3f\n",
		rep.Cache.Hits, rep.Cache.Misses, rep.Cache.HitRate)
	fmt.Printf("%20s %10s %12s %12s %12s\n", "stage", "count", "p50", "p95", "p99")
	for _, name := range obsStages {
		st := rep.Stages[name]
		fmt.Printf("%20s %10d %12.6f %12.6f %12.6f\n", name, st.Count, st.P50, st.P95, st.P99)
	}
	fmt.Printf("tracing: off=%.0f ops/sec on=%.0f ops/sec overhead=%.1f%% traces=%d\n",
		rep.Tracing.OffOpsPerSec, rep.Tracing.OnOpsPerSec, rep.Tracing.OverheadPct, rep.Tracing.Traces)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(obsOut, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", obsOut)
	fmt.Println("Expected shape: hit-rate ~0.9 (one doc-version miss per write);")
	fmt.Println("view_materialize dominates the read path, xupdate_apply the writes.")
	return nil
}

// validateObsReport checks an emitted report against the schema contract CI
// relies on. It returns the parsed report for optional display.
func validateObsReport(path string) (*ObsReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep ObsReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if rep.Schema != obsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, obsSchema)
	}
	if rep.OpsPerSec <= 0 || rep.ElapsedSeconds <= 0 || rep.Ops <= 0 {
		return nil, fmt.Errorf("%s: non-positive throughput (ops=%d elapsed=%g ops/sec=%g)",
			path, rep.Ops, rep.ElapsedSeconds, rep.OpsPerSec)
	}
	for _, name := range obsStages {
		st, ok := rep.Stages[name]
		if !ok || st.Count == 0 {
			return nil, fmt.Errorf("%s: stage %q missing or empty", path, name)
		}
		if st.P50 < 0 || st.P50 > st.P95 || st.P95 > st.P99 {
			return nil, fmt.Errorf("%s: stage %q quantiles not monotone: p50=%g p95=%g p99=%g",
				path, name, st.P50, st.P95, st.P99)
		}
	}
	if rep.Cache.HitRate < 0 || rep.Cache.HitRate > 1 {
		return nil, fmt.Errorf("%s: hit_rate %g outside [0,1]", path, rep.Cache.HitRate)
	}
	if rep.Cache.Hits+rep.Cache.Misses == 0 {
		return nil, fmt.Errorf("%s: no view-cache activity recorded", path)
	}
	if len(rep.Decisions) == 0 {
		return nil, fmt.Errorf("%s: no policy decisions recorded", path)
	}
	if rep.Tracing.OffOpsPerSec <= 0 || rep.Tracing.OnOpsPerSec <= 0 {
		return nil, fmt.Errorf("%s: non-positive tracing throughput (off=%g on=%g)",
			path, rep.Tracing.OffOpsPerSec, rep.Tracing.OnOpsPerSec)
	}
	if rep.Tracing.Traces <= 0 {
		return nil, fmt.Errorf("%s: tracing-on pass recorded no traces", path)
	}
	if rep.Tracing.OverheadPct >= 100 || rep.Tracing.OverheadPct <= -100 {
		return nil, fmt.Errorf("%s: implausible tracing overhead %g%%", path, rep.Tracing.OverheadPct)
	}
	return &rep, nil
}
