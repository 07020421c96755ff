package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the self-test holds the benchmark to.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs one shrunken workload and returns the exit code and the
// parsed last output line (nil when there is none).
func runTiny(t *testing.T, workload, trace string, extra ...string) (int, *result) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--scale", "0.02", "--out", t.TempDir()}, extra...)
	var out, errb bytes.Buffer
	code := mainExit(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Logf("stderr: %s", errb.String())
		return code, nil
	}
	return code, &res
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	c := loadContract(t)
	// staff-read is not in BENCHMARK.json (see README.md) but stays runnable.
	for _, wl := range append(c.Workloads, struct{ Name string }{"staff-read"}) {
		for _, mode := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", c.EndToEnd}, {"1", c.PerLayer}} {
			code, res := runTiny(t, wl.Name, mode.trace)
			if code != 0 || res == nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v", wl.Name, mode.trace, code, res)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", wl.Name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", wl.Name, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: %s unit %q, want %q", wl.Name, mode.trace, m.Name, got.Unit, m.Unit)
				case mode.trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, wl := range []string{"staff-read", "clinic-mixed"} {
		code, res := runTiny(t, wl, "0", "--inject-wrong-answer")
		if code == 0 {
			t.Errorf("%s: exit 0 with a corrupted expected answer", wl)
		}
		if res == nil || res.Correct || res.Failed == 0 {
			t.Errorf("%s: result %+v, want correct=false and failed > 0", wl, res)
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "staff-read", "--trace", "2"},
		{"--workload", "staff-read", "--seconds", "0"},
	} {
		if code := mainExit(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
