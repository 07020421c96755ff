// Request span tracing. A Trace is one request's tree of timed spans:
// the root covers the whole request and child spans cover the pipeline
// stages underneath it (axiom-14 policy evaluation, the RuleCache fill
// inside it, axiom 15–17 view derivation, the secured executor's per-op
// checks, journal append). Finished traces land in a Tracer's bounded
// mutex-guarded ring for GET /traces and GET /trace/{id},
// and traces over the tracer's slow threshold are logged whole through
// the process slog logger. Span names and attribute keys/values are
// bounded label strings (vet: obslabel); dynamic data goes through
// AnnotateInt or the request-ID-derived trace ID.
package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's span tree so a pathological request
// cannot grow memory without bound; spans past the cap are dropped (the
// trace itself stays intact).
const maxSpansPerTrace = 512

// defaultTraceRing is the number of finished traces a Tracer retains when
// NewTracer is given a non-positive capacity.
const defaultTraceRing = 256

type traceKey struct{}
type spanKey struct{}

// ctxSpan is the context value naming the current span: the trace it
// belongs to plus the tree node new child spans attach under.
type ctxSpan struct {
	tr   *Trace
	node *TraceSpan
}

// TraceFrom returns the active trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

func spanNode(ctx context.Context) *TraceSpan {
	cs, _ := ctx.Value(spanKey{}).(ctxSpan)
	return cs.node
}

// TraceSpan is one node of a trace's span tree in its exported (JSON)
// form. StartNS is the offset from the trace start; DurNS is -1 while the
// span is unfinished.
type TraceSpan struct {
	Name     string            `json:"name"`
	StartNS  int64             `json:"start_ns"`
	DurNS    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*TraceSpan      `json:"children,omitempty"`
}

// Trace is one request's span tree under construction. All tree access is
// serialized by mu, so spans may start, end and annotate from concurrent
// goroutines of the same request; readers only see the tree through
// deep-copying accessors.
type Trace struct {
	tracer *Tracer
	id     string
	name   string
	start  time.Time

	mu sync.Mutex
	// root, spans, dur, slow, done and user are guarded by mu: root is the
	// span tree, spans counts its nodes, done marks Finish having run and
	// user is the authenticated user the request ran as ("" when none).
	root  *TraceSpan
	spans int
	dur   time.Duration
	slow  bool
	done  bool
	user  string
}

// ID returns the trace identifier — the request ID the trace was started
// under. A nil trace returns "".
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

func (t *Trace) startSpan(parent *TraceSpan, name string, start time.Time) *TraceSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.spans >= maxSpansPerTrace {
		return nil
	}
	node := &TraceSpan{Name: name, StartNS: start.Sub(t.start).Nanoseconds(), DurNS: -1}
	if parent == nil {
		parent = t.root
	}
	parent.Children = append(parent.Children, node)
	t.spans++
	return node
}

func (t *Trace) endSpan(node *TraceSpan, d time.Duration) {
	if node == nil {
		return
	}
	t.mu.Lock()
	node.DurNS = d.Nanoseconds()
	t.mu.Unlock()
}

func (t *Trace) annotate(node *TraceSpan, key, value string) {
	if node == nil {
		return
	}
	t.mu.Lock()
	if node.Attrs == nil {
		node.Attrs = make(map[string]string, 4)
	}
	node.Attrs[key] = value
	t.mu.Unlock()
}

// Annotate attaches a key/value attribute to the trace's root span. Both
// strings must be compile-time bounded (vet: obslabel). A nil trace is a
// no-op.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	root := t.root
	t.mu.Unlock()
	t.annotate(root, key, value)
}

// SetUser records the authenticated user the request runs as. The
// server's trace endpoints show a trace to that user only. A nil trace is
// a no-op.
func (t *Trace) SetUser(user string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.user = user
	t.mu.Unlock()
}

// Finish stamps the root duration and hands the trace to its tracer's
// ring, logging it when it crossed the slow threshold. Finish is
// idempotent, and a nil trace (tracing disabled) is a no-op, so callers
// can defer it unconditionally.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.dur = time.Since(t.start)
	t.root.DurNS = t.dur.Nanoseconds()
	t.slow = t.tracer != nil && t.tracer.slow > 0 && t.dur >= t.tracer.slow
	t.mu.Unlock()
	if t.tracer != nil {
		t.tracer.record(t)
	}
}

// TraceExport is the JSON form of a trace: its summary fields plus, when
// exported with Export, the deep-copied span tree.
type TraceExport struct {
	ID    string     `json:"id"`
	Name  string     `json:"name"`
	User  string     `json:"user,omitempty"`
	Start time.Time  `json:"start"`
	DurNS int64      `json:"dur_ns"`
	Spans int        `json:"spans"`
	Slow  bool       `json:"slow,omitempty"`
	Root  *TraceSpan `json:"root,omitempty"`
}

// Summary returns the trace's summary fields (no span tree).
func (t *Trace) Summary() TraceExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceExport{
		ID: t.id, Name: t.name, User: t.user, Start: t.start,
		DurNS: t.dur.Nanoseconds(), Spans: t.spans, Slow: t.slow,
	}
}

// Export returns the trace with a deep copy of its span tree, safe to
// serialize while the trace is still being written.
func (t *Trace) Export() *TraceExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &TraceExport{
		ID: t.id, Name: t.name, User: t.user, Start: t.start,
		DurNS: t.dur.Nanoseconds(), Spans: t.spans, Slow: t.slow,
		Root: copySpan(t.root),
	}
	return e
}

func copySpan(s *TraceSpan) *TraceSpan {
	if s == nil {
		return nil
	}
	cp := &TraceSpan{Name: s.Name, StartNS: s.StartNS, DurNS: s.DurNS}
	if len(s.Attrs) > 0 {
		cp.Attrs = make(map[string]string, len(s.Attrs))
		for k, v := range s.Attrs {
			cp.Attrs[k] = v
		}
	}
	if len(s.Children) > 0 {
		cp.Children = make([]*TraceSpan, 0, len(s.Children))
		for _, c := range s.Children {
			cp.Children = append(cp.Children, copySpan(c))
		}
	}
	return cp
}

// Tracer owns the bounded ring of finished traces behind GET /traces.
type Tracer struct {
	capacity int
	slow     time.Duration
	logger   *slog.Logger

	mu sync.Mutex
	// ring holds the most recent finished traces oldest-first and byID
	// indexes them by trace ID; both are guarded by mu.
	ring []*Trace
	byID map[string]*Trace
}

// NewTracer returns a tracer retaining the last capacity finished traces
// (non-positive selects the default of 256). Traces taking at least slow
// (0 disables the threshold) are logged with their full span tree through
// logger (nil disables logging).
func NewTracer(capacity int, slow time.Duration, logger *slog.Logger) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceRing
	}
	return &Tracer{
		capacity: capacity, slow: slow, logger: logger,
		byID: make(map[string]*Trace, capacity),
	}
}

// StartTrace returns ctx carrying a new active trace named name, using
// the context's request ID as the trace ID (a fresh ID is minted — and
// attached to the returned context — when absent). A nil tracer returns
// ctx unchanged and a nil trace; all operations on the nil trace are
// no-ops, so disabled tracing needs no branching at call sites.
func (tr *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	id := RequestID(ctx)
	if id == "" {
		id = NewRequestID()
		ctx = WithRequestID(ctx, id)
	}
	t := &Trace{
		tracer: tr, id: id, name: name, start: time.Now(),
		root: &TraceSpan{Name: name, DurNS: -1}, spans: 1,
	}
	ctx = context.WithValue(ctx, traceKey{}, t)
	ctx = context.WithValue(ctx, spanKey{}, ctxSpan{tr: t, node: t.root})
	return ctx, t
}

func (tr *Tracer) record(t *Trace) {
	tr.mu.Lock()
	if len(tr.ring) >= tr.capacity {
		evict := len(tr.ring) - tr.capacity + 1
		for _, old := range tr.ring[:evict] {
			delete(tr.byID, old.id)
		}
		n := copy(tr.ring, tr.ring[evict:])
		for i := n; i < len(tr.ring); i++ {
			tr.ring[i] = nil
		}
		tr.ring = tr.ring[:n]
	}
	tr.ring = append(tr.ring, t)
	tr.byID[t.id] = t
	tr.mu.Unlock()
	if tr.logger != nil {
		if sum := t.Summary(); sum.Slow {
			tr.logger.Warn("slow trace",
				"trace_id", sum.ID, "trace_name", sum.Name,
				"duration_us", sum.DurNS/1e3, "spans", sum.Spans,
				"trace", t.Export())
		}
	}
}

// Summaries returns summaries of the retained traces, newest first. A nil
// tracer returns nil.
func (tr *Tracer) Summaries() []TraceExport {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	traces := make([]*Trace, len(tr.ring))
	copy(traces, tr.ring)
	tr.mu.Unlock()
	out := make([]TraceExport, 0, len(traces))
	for i := len(traces) - 1; i >= 0; i-- {
		out = append(out, traces[i].Summary())
	}
	return out
}

// Get returns the retained trace with the given ID. A nil tracer returns
// nothing.
func (tr *Tracer) Get(id string) (*Trace, bool) {
	if tr == nil {
		return nil, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.byID[id]
	return t, ok
}

var processTracer atomic.Pointer[Tracer]

// SetDefaultTracer installs t as the process-wide tracer used by the
// package-level StartTrace (nil disables it). Intended for the shell and
// bench harness; the HTTP server holds its own tracer.
func SetDefaultTracer(t *Tracer) { processTracer.Store(t) }

// DefaultTracer returns the tracer installed by SetDefaultTracer, or nil.
func DefaultTracer() *Tracer { return processTracer.Load() }

// StartTrace starts a trace named name against the default tracer; with
// no tracer installed it returns ctx unchanged and a nil trace.
func StartTrace(ctx context.Context, name string) (context.Context, *Trace) {
	return DefaultTracer().StartTrace(ctx, name)
}
