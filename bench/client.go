package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client is one keep-alive HTTP/1.1 connection to the daemon. It is used by
// one goroutine at a time.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *client) do(method, path, body string) (status int, resp []byte, err error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("read %s %s: %w", method, path, err)
	}
	return r.StatusCode, resp, nil
}

// verdict is the part of the daemon's verdict the benchmark checks.
type verdict struct {
	FlowID     string `json:"flow_id"`
	Admitted   bool   `json:"admitted"`
	Delay      string `json:"delay"`
	Throughput string `json:"throughput"`
}

// throughputTol absorbs the three significant digits the daemon renders
// rates with.
const throughputTol = 0.005

// checkPromise verifies an admitted verdict against the SLO its request
// carried; it returns "" when the promise keeps the SLO.
func checkPromise(v *verdict, id string, c *class) string {
	if v.FlowID != id {
		return fmt.Sprintf("verdict for %q answers flow %q", id, v.FlowID)
	}
	if !v.Admitted {
		return fmt.Sprintf("flow %q: status 200 but admitted=false", id)
	}
	d, err := time.ParseDuration(v.Delay)
	if err != nil {
		return fmt.Sprintf("flow %q: promised delay %q: %v", id, v.Delay, err)
	}
	if d > c.maxDelay {
		return fmt.Sprintf("flow %q: promised delay %v breaks max_delay %v", id, d, c.maxDelay)
	}
	if c.minTput > 0 {
		t, err := parseRate(v.Throughput)
		if err != nil {
			return fmt.Sprintf("flow %q: promised throughput %q: %v", id, v.Throughput, err)
		}
		if t < c.minTput*(1-throughputTol) {
			return fmt.Sprintf("flow %q: promised throughput %s breaks min_throughput %.0f B/s", id, v.Throughput, c.minTput)
		}
	}
	return ""
}

// parseRate reads the daemon's rate text ("1.23 MiB/s") into B/s. The
// benchmark parses replies itself: the wire format is the stable surface.
func parseRate(s string) (float64, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "/s")
	mult := 1.0
	for _, u := range []struct {
		suffix string
		mult   float64
	}{{"TiB", 1 << 40}, {"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10}, {"B", 1}} {
		if rest, ok := strings.CutSuffix(s, u.suffix); ok {
			s, mult = rest, u.mult
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return v * mult, err
}

// failures counts failed operations and keeps the first few messages.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// reply is what a backend answered to one resolved op, in the daemon's
// terms: the HTTP status (or the one the handler would have sent) and, for
// an admit or reject, the verdict.
type reply struct {
	status              int
	v                   verdict
	reqBytes, respBytes int
	err                 error
}

// backend carries a resolved op to a system under test: the daemon over
// HTTP, or its in-process twin.
type backend interface {
	exec(kind opKind, id, body string) reply
}

// httpBackend speaks the daemon's documented API over one connection.
type httpBackend struct{ cl *client }

func (h httpBackend) exec(kind opKind, id, body string) reply {
	method, path := "DELETE", "/flows/"+id
	switch kind {
	case opAdmit, opReject:
		method, path = "POST", "/admit"
	case opRecheck:
		method, path = "GET", "/flows/"+id+"/recheck"
	}
	status, resp, err := h.cl.do(method, path, body)
	r := reply{status: status, reqBytes: len(body), respBytes: len(resp), err: err}
	if err == nil && status < 500 && (kind == opAdmit || kind == opReject) {
		if err := json.Unmarshal(resp, &r.v); err != nil {
			r.err = fmt.Errorf("undecodable verdict: %w", err)
		}
	}
	if status >= 500 {
		r.err = fmt.Errorf("status %d: %.200s", status, resp)
	}
	return r
}

// lane is one sequential caller: its own backend, its own op stream and its
// own slice of the flow ledger. Lanes share no flows, so each lane knows
// exactly which of its flows the system holds and what every reply must be.
type lane struct {
	idx      int
	be       backend
	pl       *planner
	pop      *population
	live     []string // flows of this lane the system holds
	released []string // ring of recently released ids, for 404 probes
	relNext  int

	// tr, when set, wraps every backend call in an "http.<kind>" span of
	// the ncadmitd layer; lastSpan is the most recent one.
	tr       *tracer
	lastSpan int

	attempted int
	fails     failures
	reqBytes  int
	respBytes int
}

const releasedRing = 64

func newLane(idx int, be backend, pop *population, mix [numKinds]float64) *lane {
	return &lane{idx: idx, be: be, pop: pop, pl: newPlanner(pop, idx, mix)}
}

// resolve turns a planned op into the request it becomes given the flows the
// lane holds: a release or recheck with nothing to target degrades to a
// noop probe.
func (l *lane) resolve(o op) (kind opKind, id string, target int) {
	kind = o.kind
	if (kind == opRelease || kind == opRecheck) && len(l.live) == 0 {
		kind = opNoop
	}
	switch kind {
	case opAdmit, opReject:
		return kind, o.id, -1
	case opRelease, opRecheck:
		target = int(o.pick % uint64(len(l.live)))
		return kind, l.live[target], target
	default:
		id = fmt.Sprintf("x%d-%d", l.idx, o.pick)
		if len(l.released) > 0 {
			id = l.released[o.pick%uint64(len(l.released))]
		}
		return opNoop, id, -1
	}
}

// settle books a reply into the ledger and judges it. A 409 rejection is a
// valid answer; a status the ledger rules out is a failure.
func (l *lane) settle(o op, kind opKind, id string, target int, r reply) {
	l.attempted++
	l.reqBytes += r.reqBytes
	l.respBytes += r.respBytes
	if r.err != nil {
		l.fails.add("%s %s: %v", kind, id, r.err)
		return
	}
	switch kind {
	case opAdmit, opReject:
		switch {
		case r.status == 200:
			l.live = append(l.live, id)
			if kind == opReject {
				l.fails.add("reject %s: over-SLO spec admitted", id)
			} else if msg := checkPromise(&r.v, id, &l.pop.classes[o.class]); msg != "" {
				l.fails.add("admit: %s", msg)
			}
		case r.status == 409 && !r.v.Admitted:
		default:
			l.fails.add("%s %s: status %d admitted=%v", kind, id, r.status, r.v.Admitted)
		}
	case opRelease:
		last := len(l.live) - 1
		l.live[target] = l.live[last]
		l.live = l.live[:last]
		if len(l.released) < releasedRing {
			l.released = append(l.released, id)
		} else {
			l.released[l.relNext] = id
			l.relNext = (l.relNext + 1) % releasedRing
		}
		if r.status != 204 {
			l.fails.add("release %s: status %d on a registered flow", id, r.status)
		}
	case opRecheck:
		if r.status != 200 {
			l.fails.add("recheck %s: status %d on a registered flow", id, r.status)
		}
	case opNoop:
		if r.status != 404 {
			l.fails.add("noop %s: status %d on a flow the system does not hold", id, r.status)
		}
	}
}

// issue runs one op end to end and returns the kind it resolved to and the
// status it got.
func (l *lane) issue(o op) (opKind, int) {
	kind, id, target := l.resolve(o)
	if l.tr != nil {
		l.lastSpan = l.tr.begin(l.attempted, "ncadmitd", "http."+kind.String(), -1)
	}
	r := l.be.exec(kind, id, o.body)
	if l.tr != nil {
		l.tr.end(l.lastSpan)
	}
	l.settle(o, kind, id, target, r)
	return kind, r.status
}
