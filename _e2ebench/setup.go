package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"securexml/internal/core"
	"securexml/internal/scenario"
	"securexml/internal/server"
	"securexml/internal/subject"
)

// One run builds the server at least minSetups times and keeps going, up to
// maxSetups, until setupBudget has passed: cheap setups get many samples,
// so setup_s (their median) is steady whatever the workload's size.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 3 * time.Second
)

// instance is one serving database: core.Database behind server.New on a
// loopback listener.
type instance struct {
	db      *core.Database
	srv     *http.Server
	addr    string
	journal *os.File
	served  chan error
}

// setupTimes splits one setup by the public core calls it timed.
type setupTimes struct {
	policy, load, warm, total time.Duration
}

// setup brings a server up the way an operator does: the axiom-13 scenario
// (roles, the paper's users and all twelve rules, write rules included),
// the generated users, the generated document, every user's view warmed,
// and the listener accepting connections. A non-empty journalPath attaches
// a command log.
func setup(in *inputs, journalPath string) (*instance, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	db := core.New()
	if err := scenario.Setup(db); err != nil {
		return nil, st, fmt.Errorf("scenario: %w", err)
	}
	for _, u := range in.users {
		if err := db.AddUser(u.name, u.role); err != nil {
			return nil, st, fmt.Errorf("user %s: %w", u.name, err)
		}
	}
	st.policy = time.Since(start)
	t := time.Now()
	if err := db.LoadXMLString(in.docXML); err != nil {
		return nil, st, fmt.Errorf("document: %w", err)
	}
	st.load = time.Since(t)
	inst := &instance{db: db, served: make(chan error, 1)}
	if journalPath != "" {
		f, err := os.Create(journalPath)
		if err != nil {
			return nil, st, err
		}
		inst.journal = f
		db.AttachJournal(f, 0)
	}
	t = time.Now()
	if _, err := db.WarmSessions(context.Background(), nil, 0); err != nil {
		inst.close()
		return nil, st, fmt.Errorf("warm: %w", err)
	}
	st.warm = time.Since(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		inst.close()
		return nil, st, err
	}
	inst.addr = ln.Addr().String()
	// The access log is off and slow-trace logging goes through it, so
	// neither writes anything during a run.
	inst.srv = &http.Server{Handler: server.New(db, server.WithSlowTraceThreshold(0))}
	go func() { inst.served <- inst.srv.Serve(ln) }()
	if err := ping(inst.addr); err != nil {
		inst.close()
		return nil, st, err
	}
	st.total = time.Since(start)
	return inst, st, nil
}

// ping waits for the listener to answer one request.
func ping(addr string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get("http://" + addr + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close stops the server, waits for it to return, and closes the journal.
func (inst *instance) close() {
	if inst.srv != nil {
		inst.srv.Close()
		<-inst.served
		inst.srv = nil
	}
	if inst.journal != nil {
		inst.journal.Close()
		inst.journal = nil
	}
}

// setupMedian builds the server repeatedly (see minSetups) and keeps the
// last instance. Earlier instances are closed first and collected before
// the next setup starts, so no setup pays for its predecessor's garbage.
// journalDir, when set, gets one fresh journal per setup.
func setupMedian(in *inputs, journalDir string) (*instance, []setupTimes, error) {
	var (
		inst  *instance
		times []setupTimes
	)
	start := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		jpath := ""
		if journalDir != "" {
			jpath = filepath.Join(journalDir, fmt.Sprintf("journal-%d.log", i))
		}
		next, st, err := setup(in, jpath)
		if err != nil {
			return nil, nil, err
		}
		inst = next
		times = append(times, st)
	}
	return inst, times, nil
}

// hierarchy builds the Fig. 3 roles with the paper's users and the
// generated ones, independently of the database under test.
func hierarchy(us []user) (*subject.Hierarchy, error) {
	h := subject.NewHierarchy()
	steps := []error{
		h.AddRole("staff"),
		h.AddRole("secretary", "staff"),
		h.AddRole("doctor", "staff"),
		h.AddRole("epidemiologist", "staff"),
		h.AddRole("patient"),
	}
	for _, u := range scenario.Users {
		steps = append(steps, h.AddUser(u.Name, u.Role))
	}
	for _, u := range us {
		steps = append(steps, h.AddUser(u.name, u.role))
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}
