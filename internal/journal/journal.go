// Package journal implements a logical operation log (command WAL) for the
// secure XML database: the framing of entries, a Writer that appends them
// and Read, which parses them back. Each entry is one write request as it
// was published — the <xupdate:modifications> document of the operations
// that ran, framed with its issuing user. The database's commit leader
// appends a round's entries in commit order before it publishes the
// round, and core.Recover replays them, in order and through the same
// security path, onto a database restored from an earlier snapshot. A
// snapshot (internal/storage) plus its journal suffix reproduces the exact
// database state, because execution is deterministic: identifiers are
// allocated by the labeling scheme from tree positions alone, rule
// priorities are explicit, and xupdate:variable bindings re-resolve against
// the same intermediate states.
//
// Frame format (text, append-only):
//
//	entry <seq> <user> <bytes>\n
//	<bytes bytes of <xupdate:modifications> XML>\n
package journal

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"securexml/internal/obs"
)

// ErrCorrupt is wrapped by all malformed-journal errors.
var ErrCorrupt = errors.New("journal: corrupt entry")

// Telemetry: commit latency (the ROADMAP durability item) — how long one
// journal append, i.e. the write making an executed modification durable,
// takes end to end — plus the appended payload volume.
var (
	commitHist = obs.Default().Histogram("xmlsec_journal_commit_seconds", obs.LatencyBuckets)
	appended   = obs.Default().Counter("xmlsec_journal_appended_bytes_total")
)

// Entry is one logged command.
type Entry struct {
	Seq  uint64
	User string
	// Modifications is the <xupdate:modifications> document that was
	// executed.
	Modifications string
}

// Writer appends entries to a log. Safe for concurrent use.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	seq uint64
}

// NewWriter wraps an append-only destination. seqStart is the sequence
// number to continue from (0 for a fresh journal; the last replayed
// sequence when continuing after recovery).
func NewWriter(w io.Writer, seqStart uint64) *Writer {
	return &Writer{w: w, seq: seqStart}
}

// Append logs one executed modification document and returns its sequence
// number.
func (jw *Writer) Append(user, modifications string) (uint64, error) {
	return jw.AppendCtx(context.Background(), user, modifications)
}

// AppendCtx is Append with request-scoped tracing: the commit is recorded
// into the commit-latency histogram and, under an active trace, as a
// journal_append span annotated with the payload size.
func (jw *Writer) AppendCtx(ctx context.Context, user, modifications string) (uint64, error) {
	if strings.ContainsAny(user, " \n") {
		return 0, fmt.Errorf("journal: user %q contains framing bytes", user)
	}
	_, sp := obs.StartSpanCtx(ctx, "journal_append", commitHist)
	defer sp.End()
	sp.AnnotateInt("bytes", int64(len(modifications)))
	appended.Add(uint64(len(modifications)))
	jw.mu.Lock()
	defer jw.mu.Unlock()
	jw.seq++
	if _, err := fmt.Fprintf(jw.w, "entry %d %s %d\n%s\n", jw.seq, user, len(modifications), modifications); err != nil {
		return 0, err
	}
	return jw.seq, nil
}

// Seq returns the last assigned sequence number.
func (jw *Writer) Seq() uint64 {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.seq
}

// Read parses a journal stream into entries, stopping at EOF or at blank
// lines that run to EOF. A torn final entry (crash during append), or
// anything after a blank line, is reported via ErrCorrupt together with
// the entries read so far, so recovery can keep the prefix. Every
// malformed input is an ErrCorrupt; only a failing reader returns another
// error. A body is read as far as the stream goes, never allocated from
// its declared size, so a corrupt size cannot exhaust memory.
func Read(r io.Reader) ([]Entry, error) {
	br := bufio.NewReader(r)
	var entries []Entry
	for {
		header, err := br.ReadString('\n')
		if err == io.EOF && header == "" {
			return entries, nil
		}
		if err != nil && err != io.EOF {
			return entries, err
		}
		header = strings.TrimSuffix(header, "\n")
		if strings.TrimSpace(header) == "" {
			rest, err := io.ReadAll(br)
			if err == nil && strings.TrimSpace(string(rest)) != "" {
				err = fmt.Errorf("%w: data after a blank line", ErrCorrupt)
			}
			return entries, err
		}
		parts := strings.Fields(header)
		if len(parts) != 4 || parts[0] != "entry" {
			return entries, fmt.Errorf("%w: bad header %q", ErrCorrupt, header)
		}
		seq, err1 := strconv.ParseUint(parts[1], 10, 64)
		size, err2 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || size < 0 {
			return entries, fmt.Errorf("%w: bad header %q", ErrCorrupt, header)
		}
		// + trailing newline; a size of MaxInt64 makes the limit negative,
		// which reads nothing and is torn.
		body, err := io.ReadAll(io.LimitReader(br, int64(size)+1))
		if err != nil {
			return entries, err
		}
		if len(body) != size+1 {
			return entries, fmt.Errorf("%w: torn entry %d", ErrCorrupt, seq)
		}
		if body[size] != '\n' {
			return entries, fmt.Errorf("%w: entry %d missing terminator", ErrCorrupt, seq)
		}
		entries = append(entries, Entry{Seq: seq, User: parts[2], Modifications: string(body[:size])})
	}
}
