// Experiment B15 (EXPERIMENTS.md): lock-free snapshot reads under
// group-commit write churn. The copy-on-write core publishes immutable
// generations through one atomic pointer, so a read never takes a lock and
// never waits for a writer — this experiment measures what that buys.
//
// Setup: a hospital document served to thousands of concurrent sessions
// (every user holds its singleton shared session; a bounded worker pool
// multiplexes them, the same shape an HTTP server produces). One writer
// drives workload.OpStream — the shared generator of the differential and
// race suites — through a fully privileged session, while an in-place
// mirror document applies the identical ops through the unsecured
// executor. At every phase boundary the database source must equal the
// mirror byte-for-byte, so the throughput numbers come with a built-in
// differential oracle over the clone-apply-publish pipeline.
//
// Two claims are measured, then checked by validateB15Report:
//
//   - Scaling: aggregate read throughput across a GOMAXPROCS sweep. On a
//     host with 8+ CPUs the reads/sec at 8 procs must reach 2x the
//     single-proc figure; on smaller hosts (CI containers are often
//     1-CPU) the validator only demands the sweep does not collapse. The
//     host CPU count is recorded in the report — no hardware, no claim.
//   - Readers never block on writers: read throughput under a
//     free-running writer must stay within a constant factor of the
//     fixed-churn baseline. Every published generation cold-resets the
//     per-(user, snapshot) mask memos, so both probe regimes pay
//     invalidation costs and the ratio isolates lock waiting from cache
//     warmth. A design that held a lock across commit work would show a
//     collapse here; CPU sharing with the writer is the only cost COW
//     readers pay.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"securexml/internal/core"
	"securexml/internal/policy"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

const b15Schema = "securexml/bench-b15/v1"

type b15Row struct {
	Procs   int   `json:"procs"`
	Workers int   `json:"workers"`
	Reads   int64 `json:"reads"`
	Writes  int64 `json:"writes"`
	// Generations counts the document generations the writes published;
	// group commit may coalesce, so generations <= writes.
	Generations  uint64  `json:"generations"`
	ElapsedNs    int64   `json:"elapsed_ns"`
	ReadsPerSec  float64 `json:"reads_per_sec"`
	WritesPerSec float64 `json:"writes_per_sec"`
}

// b15Probe is the readers-never-block check at the widest proc setting:
// the same read fleet under the sweep's fixed write churn (baseline) and
// under a free-running writer (contended). Both regimes pay generation
// invalidations, so the ratio isolates lock waiting from cache warmth.
type b15Probe struct {
	Procs           int     `json:"procs"`
	BaselinePerSec  float64 `json:"baseline_reads_per_sec"`
	ContendedPerSec float64 `json:"contended_reads_per_sec"`
	ContendedWrites int64   `json:"contended_writes"`
	// Ratio = contended / baseline; near 1.0 means a saturating writer
	// costs readers nothing but its CPU share, small values mean readers
	// queued behind the writer.
	Ratio float64 `json:"ratio"`
}

type b15Report struct {
	Schema   string   `json:"schema"`
	Quick    bool     `json:"quick"`
	HostCPUs int      `json:"host_cpus"`
	Nodes    int      `json:"nodes"`
	Sessions int      `json:"sessions"`
	Rows     []b15Row `json:"rows"`
	Probe    b15Probe `json:"probe"`
}

// b15Queries is the read mix: broad scans, text extraction and the
// $USER-dependent patient query, all served from the source under each
// session's maintained permissions.
var b15Queries = []string{
	"//diagnosis",
	"/patients/*",
	"//service/text()",
	"/patients/*[name() = $USER]/descendant-or-self::node()",
}

// b15Env builds the benchmark database on the public core API: the paper's
// read policy over a synthetic hospital document, a patient-user fleet
// sized independently of the document, and one omnipotent writer login
// whose secured ops must degenerate to the unsecured executor's semantics.
// The returned mirror is the writer's in-place twin of the loaded document.
func b15Env(docPatients, userPatients int) (*core.Database, *xmltree.Document, []*core.Session, error) {
	mirror, err := workload.Hospital(workload.HospitalConfig{Patients: docPatients, Seed: 7})
	if err != nil {
		return nil, nil, nil, err
	}
	db := core.New(core.WithAuditLimit(0)) // silent: audit is not what B15 measures
	steps := []error{
		db.LoadXMLString(mirror.XML()),
		db.AddRole("staff"),
		db.AddRole("secretary", "staff"),
		db.AddRole("doctor", "staff"),
		db.AddRole("epidemiologist", "staff"),
		db.AddRole("patient"),
		db.AddRole("root"),
		db.AddUser("beaufort", "secretary"),
		db.AddUser("laporte", "doctor"),
		db.AddUser("richard", "epidemiologist"),
		db.AddUser("omni", "root"),
		// The axiom-13 read rules (the write rules stay out: all churn goes
		// through the omnipotent writer below).
		db.Grant(policy.Read, "/descendant-or-self::node()", "staff"),
		db.Revoke(policy.Read, "//diagnosis/node()", "secretary"),
		db.Grant(policy.Position, "//diagnosis/node()", "secretary"),
		db.Grant(policy.Read, "/patients", "patient"),
		db.Grant(policy.Read, "/patients/*[name() = $USER]/descendant-or-self::node()", "patient"),
		db.Revoke(policy.Read, "/patients/*", "epidemiologist"),
		db.Grant(policy.Position, "/patients/*", "epidemiologist"),
	}
	for _, err := range steps {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	users := []string{"beaufort", "laporte", "richard"}
	for i := 0; i < userPatients; i++ {
		u := fmt.Sprintf("p%d", i)
		if err := db.AddUser(u, "patient"); err != nil {
			return nil, nil, nil, err
		}
		users = append(users, u)
	}
	for _, priv := range policy.Privileges {
		// node() never matches attributes (they are not on the child axis),
		// so omnipotence needs the attribute subtrees granted explicitly.
		if err := db.Grant(priv, "/descendant-or-self::node()", "root"); err != nil {
			return nil, nil, nil, err
		}
		if err := db.Grant(priv, "/descendant-or-self::node()/attribute::node()/descendant-or-self::node()", "root"); err != nil {
			return nil, nil, nil, err
		}
	}
	sessions := make([]*core.Session, 0, len(users))
	for _, u := range users {
		s, err := db.SharedSession(u)
		if err != nil {
			return nil, nil, nil, err
		}
		sessions = append(sessions, s)
	}
	return db, mirror, sessions, nil
}

// b15WriteOnce draws the next executable op, applies it to the mirror with
// the raw in-place executor and to the database through the secured
// session, keeping both in lockstep. It reports false for ops skipped on
// both sides (the known secured/unsecured split: unsecured Update on an
// EMPTY element creates a text child, the secured executor refuses).
func b15WriteOnce(s *core.Session, mirror *xmltree.Document, stream *workload.Stream) (bool, error) {
	op, err := stream.Next()
	if err != nil {
		return false, err
	}
	if op.Kind == xupdate.Update {
		ns, err := xpath.Select(mirror, op.Select, nil)
		if err != nil {
			return false, err
		}
		if len(ns) == 1 && len(ns[0].Children()) == 0 {
			return false, nil
		}
	}
	if _, err := xupdate.Execute(mirror, op, nil); err != nil {
		return false, err
	}
	if _, err := s.Update(op); err != nil {
		return false, err
	}
	return true, nil
}

type b15PhaseResult struct {
	reads, writes int64
	generations   uint64
	readElapsed   time.Duration
	totalElapsed  time.Duration
}

// b15Phase runs the worker pool over the whole session fleet for dur,
// optionally with write churn. targetWrites selects the writer mode: 0
// runs no writer, a positive count performs exactly that many ops (kept
// identical across sweep rows so every row pays the same invalidation
// bill — each published generation cold-resets the per-user mask memos,
// so rows with different write counts would not be comparable), and -1
// free-runs the writer for the whole read window (the probe's contended
// regime). A positive target is completed even past the read window,
// bounded by 10x dur, so starved single-CPU hosts still report real
// churn. When the writer ran, the database source must equal the mirror
// afterwards.
func b15Phase(db *core.Database, mirror *xmltree.Document, stream *workload.Stream,
	sessions []*core.Session, workers int, dur time.Duration, targetWrites int64) (b15PhaseResult, error) {
	var (
		stop     atomic.Bool
		reads    atomic.Int64
		writes   int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	g0 := db.Stats().Generation
	start := time.Now()
	for g := 0; g < workers; g++ {
		// Worker g serves sessions g, g+workers, g+2*workers, ... so the
		// whole fleet stays concurrently live.
		mine := make([]*core.Session, 0, len(sessions)/workers+1)
		for i := g; i < len(sessions); i += workers {
			mine = append(mine, sessions[i])
		}
		wg.Add(1)
		go func(g int, mine []*core.Session) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				s := mine[i%len(mine)]
				if _, err := s.Query(b15Queries[i%len(b15Queries)]); err != nil {
					fail(err)
					return
				}
				reads.Add(1)
			}
		}(g, mine)
	}
	var writerErr error
	var writerDone sync.WaitGroup
	if targetWrites != 0 {
		w, err := db.SharedSession("omni")
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return b15PhaseResult{}, err
		}
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			maxDur := 10 * dur
			var pace time.Duration
			if targetWrites > 0 {
				// Spread an exact-count load across the read window instead
				// of bursting it at the start, so every part of the window
				// sees the same churn regime.
				pace = dur / time.Duration(targetWrites+1)
			}
			for {
				if targetWrites > 0 {
					if writes >= targetWrites || time.Since(start) > maxDur {
						return
					}
					time.Sleep(pace)
				} else if stop.Load() {
					return
				}
				ok, err := b15WriteOnce(w, mirror, stream)
				if err != nil {
					writerErr = err
					return
				}
				if ok {
					writes++
				}
			}
		}()
	}
	time.Sleep(dur)
	stop.Store(true)
	readElapsed := time.Since(start)
	wg.Wait()
	writerDone.Wait()
	res := b15PhaseResult{
		reads:        reads.Load(),
		writes:       writes,
		generations:  db.Stats().Generation - g0,
		readElapsed:  readElapsed,
		totalElapsed: time.Since(start),
	}
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return res, err
	}
	if writerErr != nil {
		return res, writerErr
	}
	if targetWrites != 0 {
		if writes == 0 {
			return res, fmt.Errorf("writer starved: no write completed within %s", res.totalElapsed)
		}
		if got, want := db.SourceXML(), mirror.XML(); got != want {
			return res, fmt.Errorf("COW executor diverged from the in-place mirror after the phase")
		}
	}
	return res, nil
}

func b15SnapshotReads() error {
	header("B15 — lock-free snapshot reads: COW generations under group-commit churn")
	docPatients, userPatients, workers := 256, 2048, 64
	dur := 400 * time.Millisecond
	var rowWrites int64 = 4
	verifyOps := 40
	if quick {
		docPatients, userPatients, workers = 64, 512, 32
		dur = 150 * time.Millisecond
		rowWrites = 2
		verifyOps = 15
	}
	procs := []int{1, 2, 4, 8}

	db, mirror, sessions, err := b15Env(docPatients, userPatients)
	if err != nil {
		return err
	}
	stream := workload.OpStream(workload.OpConfig{Doc: mirror, Seed: 7})

	// Verify before timing: replay a prefix of the op stream through both
	// executors and demand byte-identical documents — the differential
	// oracle of the race suite, re-run on this exact configuration.
	w, err := db.SharedSession("omni")
	if err != nil {
		return err
	}
	for i := 0; i < verifyOps; i++ {
		if _, err := b15WriteOnce(w, mirror, stream); err != nil {
			return fmt.Errorf("verify op %d: %w", i, err)
		}
	}
	if got, want := db.SourceXML(), mirror.XML(); got != want {
		return fmt.Errorf("verify: COW executor diverged from the in-place executor")
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	// One untimed read-only pass warms plan caches, session state and the
	// allocator so the first sweep row is not measuring cold starts.
	if _, err := b15Phase(db, mirror, stream, sessions, workers, dur/2, 0); err != nil {
		return fmt.Errorf("warm: %w", err)
	}

	rep := b15Report{
		Schema:   b15Schema,
		Quick:    quick,
		HostCPUs: runtime.NumCPU(),
		Nodes:    db.Stats().Nodes,
		Sessions: len(sessions),
	}
	fmt.Printf("host: %d CPUs; %d nodes; %d concurrent sessions over %d workers\n\n",
		rep.HostCPUs, rep.Nodes, rep.Sessions, workers)
	// Best-of-k per row: the generation invalidations land at
	// scheduler-chosen instants inside the read window, so single samples
	// scatter; the best sample estimates the row's capacity.
	samples := 3
	if quick {
		samples = 2
	}
	fmt.Printf("%7s %12s %12s %12s %8s\n", "procs", "reads/s", "writes/s", "reads", "gens")
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		var row b15Row
		for s := 0; s < samples; s++ {
			r, err := b15Phase(db, mirror, stream, sessions, workers, dur, rowWrites)
			if err != nil {
				return fmt.Errorf("procs=%d: %w", p, err)
			}
			cand := b15Row{
				Procs:        p,
				Workers:      workers,
				Reads:        r.reads,
				Writes:       r.writes,
				Generations:  r.generations,
				ElapsedNs:    r.readElapsed.Nanoseconds(),
				ReadsPerSec:  float64(r.reads) / r.readElapsed.Seconds(),
				WritesPerSec: float64(r.writes) / r.totalElapsed.Seconds(),
			}
			if cand.ReadsPerSec > row.ReadsPerSec {
				row = cand
			}
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Printf("%7d %12.0f %12.1f %12d %8d\n",
			row.Procs, row.ReadsPerSec, row.WritesPerSec, row.Reads, row.Generations)
	}

	// Readers-never-block probe at the widest setting: the same fleet
	// under a free-running writer that commits as fast as the scheduler
	// lets it (contended), then under exactly that many paced writes with
	// an otherwise idle writer (baseline). Equal write counts mean equal
	// generation invalidations, so the ratio isolates lock waiting from
	// cache warmth: a design whose readers queue behind the writer
	// collapses here, COW readers only cede the writer's CPU share.
	pMax := procs[len(procs)-1]
	runtime.GOMAXPROCS(pMax)
	contended, err := b15Phase(db, mirror, stream, sessions, workers, dur, -1)
	if err != nil {
		return fmt.Errorf("probe (free-running writer): %w", err)
	}
	baseline, err := b15Phase(db, mirror, stream, sessions, workers, dur, contended.writes)
	if err != nil {
		return fmt.Errorf("probe (baseline churn): %w", err)
	}
	rep.Probe = b15Probe{
		Procs:           pMax,
		BaselinePerSec:  float64(baseline.reads) / baseline.readElapsed.Seconds(),
		ContendedPerSec: float64(contended.reads) / contended.readElapsed.Seconds(),
		ContendedWrites: contended.writes,
	}
	rep.Probe.Ratio = rep.Probe.ContendedPerSec / rep.Probe.BaselinePerSec
	fmt.Printf("\nprobe @ %d procs: baseline %.0f reads/s, free-running writer %.0f reads/s over %d writes (ratio %.2f)\n",
		pMax, rep.Probe.BaselinePerSec, rep.Probe.ContendedPerSec, rep.Probe.ContendedWrites, rep.Probe.Ratio)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(b15Out, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", b15Out)
	fmt.Println("Expected shape: reads/sec grows with GOMAXPROCS up to the host CPU count")
	fmt.Println("(a 1-CPU container shows a flat sweep — the host_cpus field records which")
	fmt.Println("claim the report can make), and the probe ratio stays near 1: readers on")
	fmt.Println("pinned COW generations share CPU with the writer but never wait for it.")
	return nil
}

// validateB15Report checks an emitted B15 report: the sweep must start at
// one proc and grow, every phase must have completed real read and write
// work with the write rounds published as at most one generation each, and
// the two headline claims hold at the strength the recorded host supports —
// >= 2x read scaling from 1 to 8 procs when the host has 8+ CPUs, a
// no-collapse floor otherwise, and a readers-never-block probe ratio in
// both cases.
func validateB15Report(path string) (*b15Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep b15Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != b15Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, b15Schema)
	}
	if rep.HostCPUs < 1 {
		return nil, fmt.Errorf("%s: host_cpus %d", path, rep.HostCPUs)
	}
	if rep.Nodes <= 0 || rep.Sessions <= 0 {
		return nil, fmt.Errorf("%s: non-positive environment sizes", path)
	}
	if len(rep.Rows) < 2 {
		return nil, fmt.Errorf("%s: %d rows, want a sweep of at least 2", path, len(rep.Rows))
	}
	for i, r := range rep.Rows {
		switch {
		case r.Procs <= 0 || r.Workers <= 0:
			return nil, fmt.Errorf("%s: row %d: non-positive procs/workers", path, i)
		case r.Reads <= 0 || r.ReadsPerSec <= 0 || r.ElapsedNs <= 0:
			return nil, fmt.Errorf("%s: row %d: no read work recorded", path, i)
		case r.Writes <= 0 || r.WritesPerSec <= 0:
			return nil, fmt.Errorf("%s: row %d: no write churn recorded", path, i)
		case r.Writes != rep.Rows[0].Writes:
			return nil, fmt.Errorf("%s: row %d: %d writes, want the fixed per-row churn of %d — rows are not comparable",
				path, i, r.Writes, rep.Rows[0].Writes)
		case r.Generations < 1 || r.Generations > uint64(r.Writes):
			return nil, fmt.Errorf("%s: row %d: %d generations for %d writes (want 1..writes)",
				path, i, r.Generations, r.Writes)
		}
		if i == 0 && r.Procs != 1 {
			return nil, fmt.Errorf("%s: sweep must start at 1 proc, got %d", path, r.Procs)
		}
		if i > 0 && r.Procs <= rep.Rows[i-1].Procs {
			return nil, fmt.Errorf("%s: row %d: procs %d not growing", path, i, r.Procs)
		}
	}
	tp1 := rep.Rows[0].ReadsPerSec
	last := rep.Rows[len(rep.Rows)-1]
	if rep.HostCPUs >= 8 && last.Procs >= 8 {
		if last.ReadsPerSec < 2*tp1 {
			return nil, fmt.Errorf("%s: read throughput scaled only %.2fx from 1 to %d procs on a %d-CPU host (want >= 2x)",
				path, last.ReadsPerSec/tp1, last.Procs, rep.HostCPUs)
		}
	} else if last.ReadsPerSec < 0.5*tp1 {
		return nil, fmt.Errorf("%s: read throughput collapsed to %.2fx at %d procs (floor 0.5x)",
			path, last.ReadsPerSec/tp1, last.Procs)
	}
	p := rep.Probe
	if p.Procs <= 0 || p.BaselinePerSec <= 0 || p.ContendedPerSec <= 0 || p.ContendedWrites < 1 {
		return nil, fmt.Errorf("%s: incomplete readers-never-block probe", path)
	}
	if p.Ratio < 0.3 {
		return nil, fmt.Errorf("%s: reads under a free-running writer fell to %.2fx of the baseline — readers are waiting on writers",
			path, p.Ratio)
	}
	return &rep, nil
}
