package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"

	"securexml/internal/workload"
)

// endpoint is one HTTP surface the load generator drives.
type endpoint int

const (
	epQuery endpoint = iota
	epValue
	epView
	epTransform
	epUpdate
	numEndpoints
)

var endpointNames = [numEndpoints]string{"query", "value", "view", "transform", "update"}

func (e endpoint) String() string { return endpointNames[e] }

// spec is one workload at scale 1: document and population sizes, the
// endpoint mix and how readers are drawn. README.md gives the rationale.
type spec struct {
	name         string
	patients     int     // patient records in the document
	records      int     // visit records per patient
	staffPerRole int     // generated secretaries, doctors and epidemiologists
	patientUsers int     // patient logins p0..p(n-1); login pK reads record pK if the document has it
	staffShare   float64 // share of reads sent by staff users
	// viewStaffShare, when set, is the exact share of /view requests sent by
	// staff users, in place of a drawn staffShare. A staff view covers the
	// whole document and a patient view one record, so with a drawn even
	// share the view p50 falls in the gap between the two modes and moves
	// from seed to seed.
	viewStaffShare float64
	zipf           bool // draw patient readers zipfian instead of uniformly
	mix            [numEndpoints]float64
	// rate is requests per nominal second: --seconds times rate fixes the
	// request count, so every run of a workload does the same amount of work.
	rate float64
	// writes marks clinic-mixed: /update requests on client-owned patients,
	// an attached journal, and end-state checks against a replayed mirror.
	writes bool
}

var specs = map[string]*spec{
	"staff-read": {
		name: "staff-read", patients: 300, records: 2, staffPerRole: 8, staffShare: 1,
		mix:  [numEndpoints]float64{0.50, 0.38, 0.06, 0.06, 0},
		rate: 1600,
	},
	"patient-fleet": {
		name: "patient-fleet", patients: 512, patientUsers: 4608, zipf: true,
		mix:  [numEndpoints]float64{0.50, 0.34, 0.08, 0.08, 0},
		rate: 10000,
	},
	"clinic-mixed": {
		name: "clinic-mixed", patients: 256, records: 1, staffPerRole: 4, patientUsers: 128, staffShare: 0.5,
		viewStaffShare: 0.75,
		mix:            [numEndpoints]float64{0.38, 0.30, 0.08, 0.07, 0.17},
		rate:           500,
		writes:         true,
	},
}

// zipfS is the exponent of the patient-fleet reader distribution: close to
// 1, so a run touches most of the fleet while a head of patients recurs.
const zipfS = 1.01

// The label pools of workload.Hospital, used to build selective templates.
var (
	services  = []string{"cardiology", "oncology", "pneumology", "otolaryngology", "neurology", "orthopedics"}
	illnesses = []string{"tonsillitis", "pneumonia", "angina", "bronchitis", "migraine", "fracture", "flu"}
)

type user struct{ name, role string }

// template is one read request shape; the issuing user is drawn separately.
type template struct {
	ep   endpoint
	text string // XPath expression, or the body of a transform's root template
}

// target returns the request path and body of the template.
func (t template) target() (string, string) {
	switch t.ep {
	case epQuery:
		return "/query?xpath=" + url.QueryEscape(t.text), ""
	case epValue:
		return "/value?xpath=" + url.QueryEscape(t.text), ""
	case epView:
		return "/view", ""
	default:
		return "/transform", `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">` +
			`<xsl:template match="/">` + t.text + `</xsl:template></xsl:stylesheet>`
	}
}

// request is one pre-generated HTTP call.
type request struct {
	ep   endpoint
	user string
	// id indexes the (user, template) pair of a read, or the issuing
	// client's write log for an update.
	id   int
	path string
	body string
}

// pair is one distinct (user, read template) combination of a run.
type pair struct {
	user string
	tmpl int
}

// writeOp is one /update request of clinic-mixed.
type writeOp struct {
	user string
	body string
}

// inputs is everything one run generates from its seed. The program
// receives only the document, the users, the rules of scenario.Setup and
// these requests.
type inputs struct {
	spec      *spec
	docXML    string
	users     []user // generated logins; scenario.Setup declares the paper's five
	templates []template
	pairs     []pair
	seqs      [][]request // per client, in send order
	writes    [][]writeOp // per client, clinic-mixed only
}

// read returns the request that visits read pair i.
func (in *inputs) read(i int) request {
	p := in.pairs[i]
	t := in.templates[p.tmpl]
	path, body := t.target()
	return request{ep: t.ep, user: p.user, id: i, path: path, body: body}
}

func scaled(n int, scale float64, floor int) int {
	if n == 0 {
		return 0
	}
	return max(floor, int(math.Round(float64(n)*scale)))
}

// generate builds the document, users, templates and every client's request
// sequence from cfg.seed: the same seed gives the same inputs.
func generate(sp *spec, cfg config, clients int) (*inputs, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	patients := scaled(sp.patients, cfg.scale, 8)
	doc, err := workload.Hospital(workload.HospitalConfig{Patients: patients, RecordsPerPatient: sp.records, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: sp, docXML: doc.XML()}
	var staff, pats []user
	for _, r := range []struct{ prefix, role string }{{"sec", "secretary"}, {"doc", "doctor"}, {"epi", "epidemiologist"}} {
		for i := 0; i < scaled(sp.staffPerRole, cfg.scale, 2); i++ {
			staff = append(staff, user{fmt.Sprintf("%s%d", r.prefix, i), r.role})
		}
	}
	for i := 0; i < scaled(sp.patientUsers, cfg.scale, 4); i++ {
		pats = append(pats, user{fmt.Sprintf("p%d", i), "patient"})
	}
	in.users = append(append(in.users, staff...), pats...)
	in.templates = templates(sp.name, rng, patients)

	byEp := make([][]int, numEndpoints)
	targets := make([][2]string, len(in.templates))
	for i, t := range in.templates {
		byEp[t.ep] = append(byEp[t.ep], i)
		targets[i][0], targets[i][1] = t.target()
	}
	perClient := max(segments*12, int(float64(cfg.seconds)*sp.rate*cfg.scale)/clients)
	readers := newDrawer(rng, sp, staff, pats)
	pairIDs := make(map[pair]int)
	in.seqs = make([][]request, clients)
	if sp.writes {
		in.writes = make([][]writeOp, clients)
	}
	for c := range in.seqs {
		w := newWriter(c, clients, patients, staff, pats)
		seq := make([]request, 0, perClient)
		for len(seq) < perClient {
			ep := pick(rng, &sp.mix)
			if ep == epUpdate {
				op := w.next(rng)
				seq = append(seq, request{ep: epUpdate, user: op.user, id: len(in.writes[c]), path: "/update", body: op.body})
				in.writes[c] = append(in.writes[c], op)
				continue
			}
			p := pair{user: readers.next(ep), tmpl: byEp[ep][rng.Intn(len(byEp[ep]))]}
			id, ok := pairIDs[p]
			if !ok {
				id = len(in.pairs)
				pairIDs[p] = id
				in.pairs = append(in.pairs, p)
			}
			seq = append(seq, request{ep: ep, user: p.user, id: id, path: targets[p.tmpl][0], body: targets[p.tmpl][1]})
		}
		in.seqs[c] = seq
	}
	return in, nil
}

// pick draws an endpoint from the workload mix.
func pick(rng *rand.Rand, mix *[numEndpoints]float64) endpoint {
	x := rng.Float64()
	for e := endpoint(0); e < numEndpoints; e++ {
		if x < mix[e] {
			return e
		}
		x -= mix[e]
	}
	return epQuery
}

// templates builds a workload's read templates. Label-selective templates
// cover every service and illness, so the mix costs the same whatever the
// seed; patient-selective ones name patients drawn from the seed.
func templates(name string, rng *rand.Rand, patients int) []template {
	var ts []template
	add := func(ep endpoint, format string, args ...any) {
		ts = append(ts, template{ep, fmt.Sprintf(format, args...)})
	}
	perPatient := func(n int, ep endpoint, format string) {
		for i := 0; i < n; i++ {
			add(ep, format, fmt.Sprintf("p%d", rng.Intn(patients)))
		}
	}
	perLabel := func(labels []string, ep endpoint, format string) {
		for _, l := range labels {
			add(ep, format, l)
		}
	}
	switch name {
	case "staff-read":
		perPatient(4, epQuery, "/patients/%s/diagnosis")
		perPatient(2, epQuery, "/patients/%s/record/note/text()")
		perPatient(2, epQuery, "//%s/record")
		perLabel(services, epQuery, "/patients/*[service='%s']/diagnosis")
		perLabel(illnesses, epQuery, "//diagnosis[.='%s']")
		perPatient(4, epValue, "string(/patients/%s/diagnosis)")
		perPatient(2, epValue, "boolean(//%s/record)")
		perPatient(2, epValue, "/patients/%s/service") // a node-set value: the view tier serves it
		perLabel(services, epValue, "count(/patients/*[service='%s'])")
		perLabel(illnesses, epValue, "count(//diagnosis[.='%s'])")
		perLabel(services, epTransform, `<r><xsl:for-each select="/patients/*[service='%s']"><p dx="{diagnosis}"/></xsl:for-each></r>`)
	case "patient-fleet":
		add(epQuery, "/patients/*[name()=$USER]/diagnosis")
		add(epQuery, "/patients/*[name()=$USER]/descendant::text()")
		add(epQuery, "//service")
		perLabel(illnesses, epQuery, "//diagnosis[.='%s']")
		add(epValue, "string(/patients/*[name()=$USER]/diagnosis)")
		add(epValue, "count(/patients/*)")
		perLabel(services, epValue, "boolean(//service[.='%s'])")
		add(epTransform, `<r><xsl:for-each select="/patients/*"><p s="{service}" d="{diagnosis}"/></xsl:for-each></r>`)
		add(epTransform, `<r><xsl:value-of select="count(//diagnosis)"/></r>`)
	case "clinic-mixed":
		// Every read template is invariant under the workload's writes,
		// which rewrite diagnoses and add <admitted> siblings only, so one
		// expected answer holds for the whole window.
		perPatient(4, epQuery, "/patients/%s/service/text()")
		perPatient(2, epQuery, "//%s/record/note")
		perLabel(services, epQuery, "/patients/*[service='%s']/service")
		add(epQuery, "/patients/*[name()=$USER]/service")
		perPatient(4, epValue, "string(/patients/%s/service)")
		perPatient(2, epValue, "/patients/%s/service") // a node-set value: the view tier serves it
		perLabel(services, epValue, "count(//service[.='%s'])")
		add(epValue, "count(//record)")
		perLabel(services, epTransform, `<r><xsl:for-each select="/patients/*[service='%s']"><p s="{service}"/></xsl:for-each></r>`)
	}
	return append(ts, template{ep: epView})
}

// drawer picks the user of each read.
type drawer struct {
	rng        *rand.Rand
	staff      []user
	patients   []user
	staffShare float64
	viewShare  float64 // the spec's viewStaffShare
	views      int     // /view requests drawn so far
	zipf       *rand.Zipf
	perm       []int // zipf rank -> patient, so the hot head varies by seed
}

func newDrawer(rng *rand.Rand, sp *spec, staff, pats []user) *drawer {
	d := &drawer{rng: rng, staff: staff, patients: pats, staffShare: sp.staffShare, viewShare: sp.viewStaffShare}
	if sp.zipf && len(pats) > 1 {
		d.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(pats)-1))
		d.perm = rng.Perm(len(pats))
	}
	return d
}

// next picks the user of a read of endpoint ep.
func (d *drawer) next(ep endpoint) string {
	staff := len(d.patients) == 0
	switch {
	case staff:
	case ep == epView && d.viewShare > 0:
		// The k-th view goes to staff when it raises floor(k * share), so
		// the share is exact and spread evenly over the run.
		d.views++
		staff = int(float64(d.views)*d.viewShare) > int(float64(d.views-1)*d.viewShare)
	default:
		staff = d.rng.Float64() < d.staffShare
	}
	if staff {
		return d.staff[d.rng.Intn(len(d.staff))].name
	}
	if d.zipf != nil {
		return d.patients[d.perm[d.zipf.Uint64()]].name
	}
	return d.patients[d.rng.Intn(len(d.patients))].name
}

// writer generates one client's /update requests. Client c owns the
// patients whose index is c modulo the client count and writes no others,
// so writes of different clients commute and replaying each client's log
// in order reproduces the server's final document exactly.
type writer struct {
	c, n       int
	own        []int // owned patient indices
	ownUsers   []int // owned patients that have a login
	secs, docs []string
}

func newWriter(c, clients, patients int, staff, pats []user) *writer {
	w := &writer{c: c}
	for k := c; k < patients; k += clients {
		w.own = append(w.own, k)
		if k < len(pats) {
			w.ownUsers = append(w.ownUsers, k)
		}
	}
	for _, u := range staff {
		switch u.role {
		case "secretary":
			w.secs = append(w.secs, u.name)
		case "doctor":
			w.docs = append(w.docs, u.name)
		}
	}
	return w
}

func modifications(op string) string {
	return `<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">` + op + `</xupdate:modifications>`
}

// next draws one write. Refusals are correct outcomes: the server must
// report them as skipped nodes, exactly as the mirror does.
func (w *writer) next(rng *rand.Rand) writeOp {
	w.n++
	k := w.own[rng.Intn(len(w.own))]
	doctor := w.docs[rng.Intn(len(w.docs))]
	secretary := w.secs[rng.Intn(len(w.secs))]
	switch x := rng.Float64(); {
	case x < 0.45: // applied: a doctor rewrites the diagnosis (axioms 20-21)
		return writeOp{doctor, modifications(fmt.Sprintf(`<xupdate:update select="/patients/p%d/diagnosis">%s-%d-%d</xupdate:update>`,
			k, illnesses[rng.Intn(len(illnesses))], w.c, w.n))}
	case x < 0.65: // applied: a secretary records an admission beside the patient (axiom 24)
		return writeOp{secretary, modifications(fmt.Sprintf(`<xupdate:insert-after select="/patients/p%d"><admitted><note>visit %d-%d</note></admitted></xupdate:insert-after>`,
			k, w.c, w.n))}
	case x < 0.80: // refused: a secretary holds no update on a patient's children (axiom 20)
		return writeOp{secretary, modifications(fmt.Sprintf(`<xupdate:update select="/patients/p%d">discharged</xupdate:update>`, k))}
	case x < 0.90 || len(w.ownUsers) == 0: // refused: a doctor holds no delete on services (axiom 25)
		return writeOp{doctor, modifications(fmt.Sprintf(`<xupdate:remove select="/patients/p%d/service"/>`, k))}
	default: // refused: patients hold no update privilege
		p := w.ownUsers[rng.Intn(len(w.ownUsers))]
		return writeOp{fmt.Sprintf("p%d", p), modifications(fmt.Sprintf(`<xupdate:update select="/patients/p%d/diagnosis">cured</xupdate:update>`, p))}
	}
}
