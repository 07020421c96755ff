// Command e2ebench is the end-to-end benchmark of the secure XML database.
// It drives an in-process server (internal/server over core.Database)
// through loopback TCP with a closed loop of clients, checks every answer
// against an independent oracle, and splits latency by layer in a traced
// run. README.md documents the workloads and the layer-to-metric map.
//
// Usage, from the repository root:
//
//	bash _e2ebench/run.sh --workload staff-read --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A failed check exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string  // result files, spans and the journal
	scale    float64 // shrinks document, users and request count
	inject   bool    // falsify one expected answer
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// mainExit runs the benchmark and returns the exit code: 0 when every check
// passed, 1 when one failed or the run broke, 2 for bad arguments.
func mainExit(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	res, err := run(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "e2ebench: a correctness check failed")
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg   config
		trace int
	)
	fs.StringVar(&cfg.workload, "workload", "", "staff-read, patient-fleet or clinic-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal window length; fixes the request count")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "e2ebench"), "directory for result files, spans and the journal")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrink factor in (0, 1] for document, users and requests")
	fs.BoolVar(&cfg.inject, "inject-wrong-answer", false, "corrupt one expected answer (self-test of the oracle)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	case specs[cfg.workload] == nil:
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	case cfg.seconds < 1:
		return cfg, errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return cfg, errors.New("--trace must be 0 or 1")
	case !(cfg.scale > 0 && cfg.scale <= 1):
		return cfg, errors.New("--scale must be in (0, 1]")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// hostInfo is the context every result records.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Clients    int     `json:"clients"`
	Requests   int     `json:"requests"`
	Segments   int     `json:"segments"`
}

// gitRev reads the checked-out commit from .git in the working directory;
// a checkout without git metadata records "unknown".
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// run performs one benchmark run: generate, set up (several times), build
// the oracle, warm every pair, run the window, check, and report.
func run(cfg config, stdout, stderr io.Writer) (*result, error) {
	sp := specs[cfg.workload]
	clients := max(2, runtime.NumCPU())
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	in, err := generate(sp, cfg, clients)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	host := hostInfo{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: gitRev(), Clients: clients, Segments: segments,
	}
	for _, seq := range in.seqs {
		host.Requests += len(seq)
	}
	fmt.Fprintf(stdout, "context: workload=%s seed=%d trace=%t host_cpus=%d gomaxprocs=%d go=%s rev=%s clients=%d requests=%d segments=%d users=%d pairs=%d\n",
		host.Workload, host.Seed, host.Trace, host.HostCPUs, host.GOMAXPROCS, host.GoVersion, host.GitRev,
		host.Clients, host.Requests, host.Segments, len(in.users), len(in.pairs))

	journalDir := ""
	if sp.writes {
		if journalDir, err = os.MkdirTemp(cfg.out, "journal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(journalDir)
	}
	inst, setups, err := setupMedian(in, journalDir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	or, err := buildOracle(inst, in)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if cfg.inject {
		if err := or.corrupt(in); err != nil {
			return nil, err
		}
	}
	cl := newClients(inst.addr, clients)
	defer closeClients(cl)
	warmFailed := warmPass(cl, in, or)

	w := runWindow(cl, in, or, inst, cfg.trace)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	finalFailed := 0
	if sp.writes {
		if finalFailed, err = checkFinalState(cl[0], inst, in, or, w.counts, stderr); err != nil {
			return nil, fmt.Errorf("end-state check: %w", err)
		}
	}
	un := summarize(w, in, false)
	res := &result{Attempted: host.Requests}
	for _, col := range w.samples {
		for _, s := range col {
			if !s.ok {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0 && warmFailed == 0 && finalFailed == 0
	if or.mismatch != "" {
		fmt.Fprintln(stderr, "wrong answer:", or.mismatch)
	}

	setupS := make([]float64, len(setups))
	for i, st := range setups {
		setupS[i] = st.total.Seconds()
	}
	var tr summary
	if cfg.trace {
		tr = summarize(w, in, true)
		xt, err := timeXmltree(or)
		if err != nil {
			return nil, err
		}
		res.Metrics = layerMetrics(w, tr, un, setups, xt)
		a := attribute(w.reg, tr)
		fmt.Fprintf(stdout, "attribution: client mean %.4f ms = server self %.4f ms + core stages %.4f ms (of which unattributed core self %.4f ms)\n",
			a.clientMS, a.serverSelfMS, a.coreMS, a.coreSelfMS)
		if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.workload, cfg.seed)), w, in); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(un, median(setupS), heapMB)
	}
	for name, m := range res.Metrics {
		res.Metrics[name] = metric{finite(m.Value), m.Unit}
	}

	sampled := un
	if cfg.trace {
		sampled = tr
	}
	counts := map[string]int{"requests": sampled.n}
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		counts[ep.String()] = sampled.epN[ep]
	}
	errorRate := ratio(float64(res.Failed), float64(res.Attempted))
	fmt.Fprintf(stdout, "setup_s runs: %v\n", setupS)
	fmt.Fprintf(stdout, "segment throughput (1/s): %.1f\n", sampled.segTput)
	fmt.Fprintf(stdout, "window: %.3f s wall, %.3f s cpu (%.0f%% of %d cpus)\n", w.wall.Seconds(), w.cpu.Seconds(),
		100*w.cpu.Seconds()/w.wall.Seconds()/float64(runtime.NumCPU()), runtime.NumCPU())
	fmt.Fprintf(stdout, "checks: attempted=%d failed=%d error_rate=%g warm_failed=%d end_state_failed=%d\n",
		res.Attempted, res.Failed, errorRate, warmFailed, finalFailed)
	fmt.Fprintf(stdout, "samples: %s\n", formatCounts(counts))
	if !cfg.trace && sp.writes {
		fmt.Fprintf(stdout, "update_p50_ms: %g ms (n=%d)\n", un.epP50[epUpdate], un.epN[epUpdate])
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "metric %s %g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}

	record := map[string]any{
		"context": host, "result": res, "error_rate": errorRate, "setup_s_runs": setupS,
		"samples": counts, "warm_failed": warmFailed, "end_state_failed": finalFailed,
	}
	if sp.writes && !cfg.trace {
		record["update_p50_ms"] = un.epP50[epUpdate]
	}
	raw, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func formatCounts(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	return strings.Join(parts, " ")
}

// spanRecord is one client-side span of a traced segment, keyed by the
// X-Request-Id the server assigned (also the id of its /trace/{id} tree).
type spanRecord struct {
	ID       string `json:"id"`
	Client   int    `json:"client"`
	Endpoint string `json:"endpoint"`
	User     string `json:"user"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	Status   int    `json:"status"`
	Bytes    int    `json:"bytes"`
	OK       bool   `json:"ok"`
}

// writeSpans writes the spans kept in memory during the traced segments,
// one JSON object per line.
func writeSpans(path string, w *window, in *inputs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for c := range w.samples {
		for s, seg := range w.segs {
			if !seg.traced {
				continue
			}
			for i := w.bounds[c][s]; i < w.bounds[c][s+1]; i++ {
				sm, r := w.samples[c][i], in.seqs[c][i]
				if err := enc.Encode(spanRecord{sm.reqID, c, r.ep.String(), r.user, sm.start, sm.dur, sm.status, sm.bytes, sm.ok}); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
