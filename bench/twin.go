package main

import (
	"fmt"

	"streamcalc/internal/admit"
	"streamcalc/internal/spec"
)

// newTwin builds the in-process twin of a workload's daemon: the same
// platform JSON through spec.ParsePlatform(...).Controller(), nothing
// attached. The curve op memo is process-wide, so twins that must not serve
// each other's curve operations get their node rates bumped by a few B/s.
func newTwin(pop *population, bump int) (*admit.Controller, error) {
	pl, err := spec.ParsePlatform([]byte(platformJSON(pop.w, pop.demand, float64(bump))))
	if err != nil {
		return nil, err
	}
	return pl.Controller()
}

// parseBatch turns an /admit/batch body into controller flows the way the
// daemon's handler does.
func parseBatch(body string) ([]admit.Flow, error) {
	wire, err := spec.ParseFlows([]byte(body))
	if err != nil {
		return nil, err
	}
	flows := make([]admit.Flow, len(wire))
	for i := range wire {
		if flows[i], err = wire[i].Admit(); err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
	}
	return flows, nil
}

// parseOne turns a single flow body into a controller flow.
func parseOne(body string) (admit.Flow, error) {
	wire, err := spec.ParseFlow([]byte(body))
	if err != nil {
		return admit.Flow{}, err
	}
	return wire.Admit()
}

// preloadTwin offers the preload batches to the twin in order and returns
// which preload flows it admitted. A non-nil tracer gets a spec.parse_batch
// and an admit.batch span per batch, children of roots[i] when given.
func preloadTwin(c *admit.Controller, pop *population, batches []string, tr *tracer, roots []int) ([]bool, error) {
	admitted := make([]bool, 0, len(pop.preload))
	for i, b := range batches {
		parent := -1
		if roots != nil {
			parent = roots[i]
			tr.rebase(parent)
		}
		s := tr.begin(-1-i, "spec", "spec.parse_batch", parent)
		flows, err := parseBatch(b)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin(-1-i, "admit", "admit.batch", parent)
		vs := c.AdmitBatch(flows)
		tr.end(s)
		for _, v := range vs {
			admitted = append(admitted, v.Admitted)
		}
	}
	return admitted, nil
}

// twinBackend answers ops from an in-process controller the way the daemon's
// handlers would, timing the spec and admit calls as spans when traced.
type twinBackend struct {
	c  *admit.Controller
	tr *tracer // nil on an untraced pass
	// opID and parent label the spans of the next op; the caller sets them.
	opID, parent int
}

func (t *twinBackend) exec(kind opKind, id, body string) reply {
	switch kind {
	case opAdmit, opReject:
		s := t.tr.begin(t.opID, "spec", "spec.parse", t.parent)
		wire, err := spec.ParseFlow([]byte(body))
		var f admit.Flow
		if err == nil {
			f, err = wire.Admit()
		}
		t.tr.end(s)
		if err != nil {
			return reply{err: err}
		}
		s = t.tr.begin(t.opID, "admit", "admit."+kind.String(), t.parent)
		v := t.c.Admit(f)
		t.tr.end(s)
		r := reply{status: 409, v: verdict{FlowID: v.FlowID, Admitted: v.Admitted}}
		if v.Admitted {
			r.status = 200
			r.v.Delay = v.Delay.String()
			r.v.Throughput = v.Throughput.String()
		}
		return r
	case opRecheck:
		s := t.tr.begin(t.opID, "admit", "admit.recheck", t.parent)
		v, err := t.c.Recheck(id)
		t.tr.end(s)
		switch {
		case err != nil:
			return reply{status: 404}
		case !v.Admitted:
			return reply{status: 409}
		}
		return reply{status: 200}
	default:
		s := t.tr.begin(t.opID, "admit", "admit."+kind.String(), t.parent)
		ok := t.c.Release(id)
		t.tr.end(s)
		if !ok {
			return reply{status: 404}
		}
		return reply{status: 204}
	}
}
