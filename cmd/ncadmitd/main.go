// Command ncadmitd serves online flow admission control over a shared
// platform described in JSON. Tenants POST flows (arrival envelope, node
// path, SLO) and get verdicts with explanations; the daemon tracks admitted
// flows and per-node residual service.
//
// Usage:
//
//	ncadmitd -platform platform.json [-addr :8080] [-rung blind|fifo|tight] [-simtotal total] [-seed n]
//	ncadmitd -platform platform.json -validate trace.json [-simtotal total] [-seed n]
//	ncadmitd -example > platform.json
//	ncadmitd -example-trace > trace.json
//
// API:
//
//	POST   /admit                  submit a flow (spec.Flow JSON) for admission
//	POST   /admit/batch            submit a flow array transactionally; returns
//	                               a verdict array in input order
//	DELETE /flows/{id}             release an admitted flow
//	GET    /flows                  list admitted flows with their verdicts
//	GET    /flows/{id}/recheck     re-run the analytic SLO check for one flow
//	                               at the current platform state (409 when the
//	                               promise no longer holds)
//	GET    /nodes/{name}/residual  a node's residual service after reservations
//	POST   /revalidate             re-check every admitted flow by sim replay at
//	                               its current residual service, fanned across a
//	                               worker pool (?workers=N, default GOMAXPROCS);
//	                               409 when any bound or SLO is violated
//	GET    /healthz                liveness, platform epoch, flows, classes,
//	                               uptime, decision rate
//	GET    /metrics                Prometheus text metrics (?format=json for JSON),
//	                               including per-flow bound-tightness gauges
//	GET    /debug/decisions        flight recorder: the last N admission
//	                               decisions with per-phase latency breakdowns
//	                               (?n= limits; -decisions sizes the ring)
//	GET    /debug/decisions/trace  the same decisions as a Chrome trace_event
//	                               timeline (open in chrome://tracing or Perfetto)
//
// Every admission decision and release is audited as a structured log line
// on stderr (disable with -audit=false). With -pprof the net/http/pprof
// profiling handlers are mounted under /debug/pprof/ on the same listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/core"
	"streamcalc/internal/obs"
	"streamcalc/internal/spec"
	"streamcalc/internal/units"
)

func main() {
	var (
		platformPath = flag.String("platform", "", "path to the platform JSON description")
		addr         = flag.String("addr", ":8080", "listen address")
		validate     = flag.String("validate", "", "replay this admitted-flow trace through the simulator and exit")
		simTotal     = flag.String("simtotal", "1 MiB", "input volume per simulated flow in every replay: -validate, POST /revalidate and the /metrics bound-tightness probe")
		seed         = flag.Uint64("seed", 1, "simulation seed for every replay (-validate, POST /revalidate, /metrics)")
		rungFlag     = flag.String("rung", "", "default analysis tightness rung: blind, fifo or tight (overrides the platform's \"rung\" field; a flow's own \"rung\" overrides both)")
		audit        = flag.Bool("audit", true, "log every admission decision and release as a structured line on stderr")
		example      = flag.Bool("example", false, "print a sample platform and exit")
		exampleTr    = flag.Bool("example-trace", false, "print a sample trace and exit")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		nodeMetrics  = flag.Bool("node-metrics", false, "export per-node gauges on /metrics (one series per node per family; unbounded cardinality on large platforms)")
		decisions    = flag.Int("decisions", 1024, "flight-recorder depth: retain the last N admission decisions on /debug/decisions (0 disables)")
		sloObjective = flag.Duration("slo", 100*time.Millisecond, "decision-latency objective for the SLO burn-rate instruments")
		sloBudget    = flag.Float64("slo-budget", 0.01, "tolerated slow-decision fraction the SLO burn-rate gauge normalizes against")
	)
	flag.Parse()

	if *example {
		fmt.Println(spec.ExamplePlatform())
		return
	}
	if *exampleTr {
		fmt.Println(spec.ExampleTrace())
		return
	}
	if *platformPath == "" {
		fmt.Fprintln(os.Stderr, "ncadmitd: -platform is required (see -example)")
		os.Exit(2)
	}
	data, err := os.ReadFile(*platformPath)
	if err != nil {
		fail(err)
	}
	pl, err := spec.ParsePlatform(data)
	if err != nil {
		fail(err)
	}
	c, err := pl.Controller()
	if err != nil {
		fail(err)
	}
	if *rungFlag != "" {
		r, err := core.ParseRung(*rungFlag)
		if err != nil {
			fail(err)
		}
		c.SetRung(r)
	}
	total, err := units.ParseBytes(*simTotal)
	if err != nil {
		fail(fmt.Errorf("simtotal: %w", err))
	}
	replay := admit.ReplayOptions{Total: total, Seed: *seed}

	if *validate != "" {
		if err := runValidate(c, *validate, replay); err != nil {
			fail(err)
		}
		return
	}

	reg := obs.NewRegistry()
	c.EnableObsOpts(reg, admit.ObsOptions{
		PerNodeMetrics: *nodeMetrics,
		SLOObjective:   *sloObjective,
		SLOBudget:      *sloBudget,
	})
	if *decisions > 0 {
		c.EnableFlightRecorder(*decisions)
	}
	if *audit {
		c.SetAudit(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	srv := newServer(c, serverOptions{
		pprof:   *pprofOn,
		metrics: reg,
		replay:  replay,
		start:   time.Now(),
	})

	fmt.Printf("ncadmitd: platform %q (%d nodes), listening on %s\n",
		c.Name(), len(c.NodeNames()), *addr)
	if err := serve(*addr, srv); err != nil {
		fail(err)
	}
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests (bounded) before returning. ReadHeaderTimeout guards against
// slow-header connection exhaustion.
func serve(addr string, h http.Handler) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe() }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintln(os.Stderr, "ncadmitd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// runValidate replays a trace through the controller, simulating every
// admitted flow at the residual service and asserting the promised bounds.
// It exits non-zero when any promise is violated.
func runValidate(c *admit.Controller, tracePath string, opt admit.ReplayOptions) error {
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	wire, err := spec.ParseTrace(data)
	if err != nil {
		return err
	}
	ops, err := spec.TraceOps(wire)
	if err != nil {
		return err
	}
	rep, err := admit.Replay(c, ops, opt)
	if err != nil {
		return err
	}

	fmt.Printf("validate: platform %q, %d trace ops (%s input per flow, seed %d)\n",
		c.Name(), len(rep.Steps), opt.Total, opt.Seed)
	for _, s := range rep.Steps {
		switch {
		case s.Op == "release":
			fmt.Printf("  [%2d] release %-8s\n", s.Index, s.FlowID)
		case s.Verdict.Admitted:
			fmt.Printf("  [%2d] admit   %-8s ok    promised delay %v backlog %v; simulated delay %v backlog %v throughput %v\n",
				s.Index, s.FlowID, s.Verdict.Delay, s.Verdict.Backlog,
				s.Revalidation.SimDelayMax, s.Revalidation.SimMaxBacklog, s.Revalidation.SimThroughput)
		default:
			fmt.Printf("  [%2d] admit   %-8s REJECTED (%s)\n", s.Index, s.FlowID, s.Verdict.Binding)
		}
		for _, v := range s.Violations {
			fmt.Printf("       VIOLATION: %s\n", v)
		}
	}
	fmt.Printf("validate: %d admitted, %d rejected, %d violations\n",
		rep.Admitted, rep.Rejected, rep.Violations)
	if rep.Violations > 0 {
		return fmt.Errorf("%d promised bounds violated in simulation", rep.Violations)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ncadmitd:", err)
	os.Exit(1)
}
