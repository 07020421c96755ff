package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"securexml/internal/obs"
)

// client is one closed-loop caller: one keep-alive connection and one
// request in flight; the next request is sent only after the previous
// reply has been read, as every caller of this server does.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer
}

func newClients(addr string, n int) []*client {
	cl := make([]*client, n)
	for i := range cl {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		cl[i] = &client{hc: &http.Client{Transport: tr}, tr: tr, base: "http://" + addr}
	}
	return cl
}

func closeClients(cl []*client) {
	for _, c := range cl {
		c.tr.CloseIdleConnections()
	}
}

// do sends r and reads the whole reply. The returned body aliases the
// client's buffer and is valid until the next call.
func (c *client) do(r *request) (status int, reqID string, body []byte, err error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if r.body != "" {
		method, rd = http.MethodPost, strings.NewReader(r.body)
	}
	req, err := http.NewRequest(method, c.base+r.path, rd)
	if err != nil {
		return 0, "", nil, err
	}
	req.SetBasicAuth(r.user, "")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Request-Id"), c.buf.Bytes(), err
}

// sample is the client-side span of one request.
type sample struct {
	start  int64 // ns since the window began (traced segments)
	dur    int64 // ns from sending the request to reading the last body byte
	bytes  int
	status int
	ok     bool
	reqID  string // X-Request-Id (traced segments)
}

// run sends reqs in order, recording one sample each. Update replies are
// parsed into counts for the end-state check; every read is checked
// against the oracle after its latency is taken.
func (c *client) run(reqs []request, out []sample, counts []opCounts, or *oracle, base time.Time, traced bool) {
	for i := range reqs {
		r := &reqs[i]
		t0 := time.Now()
		status, id, body, err := c.do(r)
		d := time.Since(t0)
		s := &out[i]
		s.dur, s.status, s.bytes = int64(d), status, len(body)
		if traced {
			s.start, s.reqID = int64(t0.Sub(base)), id
		}
		if err != nil || status/100 != 2 {
			continue
		}
		if r.ep == epUpdate {
			counts[r.id], s.ok = parseCounts(body)
		} else {
			s.ok = or.check(r, body)
		}
	}
}

// segments is the number of equal slices a window is cut into; end-to-end
// figures are medians over the slices.
const segments = 12

// segment is one slice of the window: every client runs its share of the
// slice, and the slice ends when the last client is done.
type segment struct {
	traced bool
	dur    time.Duration
}

// window is the timed run over every client's pre-generated sequence.
type window struct {
	samples [][]sample   // per client, aligned with the client's sequence
	counts  [][]opCounts // per client, aligned with its write log
	bounds  [][]int      // per client, segment start offsets (segments+1 entries)
	segs    []segment
	cpu     time.Duration // process CPU time (user + system) over the window
	wall    time.Duration

	// Traced segments only.
	reg      *regDelta
	alloc    uint64 // bytes allocated
	gcs      uint32
	pauseNS  uint64
	heapPeak uint64 // sampled heap object bytes
	gens     uint64 // published generations
}

// runWindow runs the sequences in segments. With trace set, odd segments
// are traced: registry snapshots and runtime statistics bracket them, and
// their samples keep request ids and start times. Even segments run as in
// an untraced run, so the two halves give the tracing overhead.
func runWindow(cl []*client, in *inputs, or *oracle, inst *instance, trace bool) *window {
	w := &window{
		samples: make([][]sample, len(cl)),
		counts:  make([][]opCounts, len(cl)),
		bounds:  make([][]int, len(cl)),
		reg:     newRegDelta(),
	}
	for c, seq := range in.seqs {
		w.samples[c] = make([]sample, len(seq))
		if in.writes != nil {
			w.counts[c] = make([]opCounts, len(in.writes[c]))
		}
		for s := 0; s <= segments; s++ {
			w.bounds[c] = append(w.bounds[c], len(seq)*s/segments)
		}
	}
	cpu0 := processCPU()
	base := time.Now()
	for s := 0; s < segments; s++ {
		traced := trace && s%2 == 1
		var (
			before  *obs.Snapshot
			ms0     runtime.MemStats
			gen0    uint64
			sampler *heapSampler
		)
		if traced {
			runtime.ReadMemStats(&ms0)
			gen0 = inst.db.Stats().Generation
			before = obs.Default().Snapshot()
			sampler = startHeapSampler()
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c := range cl {
			lo, hi := w.bounds[c][s], w.bounds[c][s+1]
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl[c].run(in.seqs[c][lo:hi], w.samples[c][lo:hi], w.counts[c], or, base, traced)
			}(c)
		}
		wg.Wait()
		w.segs = append(w.segs, segment{traced: traced, dur: time.Since(start)})
		if traced {
			w.heapPeak = max(w.heapPeak, sampler.finish())
			w.reg.add(before, obs.Default().Snapshot())
			w.gens += inst.db.Stats().Generation - gen0
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			w.alloc += ms1.TotalAlloc - ms0.TotalAlloc
			w.gcs += ms1.NumGC - ms0.NumGC
			w.pauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
		}
	}
	w.wall, w.cpu = time.Since(base), processCPU()-cpu0
	return w
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap object bytes during a traced segment.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak it saw.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}

// summary describes the samples of the traced or the untraced segments.
// Throughput is the median over segments, so one disturbed slice cannot
// move it; latency percentiles pool the segments' samples, because one
// segment holds too few slow requests for a steady tail.
type summary struct {
	n, failed int
	epN       [numEndpoints]int
	tput      float64
	segTput   []float64
	p50, p99  float64
	epP50     [numEndpoints]float64
	epP99     [numEndpoints]float64
	meanMS    float64
	viewBytes float64
}

func summarize(w *window, in *inputs, traced bool) summary {
	var (
		sum                summary
		all                []float64
		byEp               [numEndpoints][]float64
		totalMS, viewBytes float64
	)
	for s, seg := range w.segs {
		if seg.traced != traced {
			continue
		}
		n := 0
		for c := range w.samples {
			for i := w.bounds[c][s]; i < w.bounds[c][s+1]; i++ {
				sm := &w.samples[c][i]
				ep := in.seqs[c][i].ep
				ms := float64(sm.dur) / 1e6
				all = append(all, ms)
				byEp[ep] = append(byEp[ep], ms)
				totalMS += ms
				n++
				if !sm.ok {
					sum.failed++
				}
				if ep == epView {
					viewBytes += float64(sm.bytes)
				}
			}
		}
		sum.segTput = append(sum.segTput, float64(n)/seg.dur.Seconds())
	}
	sum.n = len(all)
	sum.tput = median(sum.segTput)
	sort.Float64s(all)
	sum.p50, sum.p99 = percentile(all, 0.50), percentile(all, 0.99)
	for ep := range byEp {
		sort.Float64s(byEp[ep])
		sum.epN[ep] = len(byEp[ep])
		sum.epP50[ep], sum.epP99[ep] = percentile(byEp[ep], 0.50), percentile(byEp[ep], 0.99)
	}
	if sum.n > 0 {
		sum.meanMS = totalMS / float64(sum.n)
	}
	if sum.epN[epView] > 0 {
		sum.viewBytes = viewBytes / float64(sum.epN[epView])
	}
	return sum
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
