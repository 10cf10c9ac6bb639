package admit

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"streamcalc/internal/obs"
	"streamcalc/internal/units"
)

// phaseSum adds up a record's phase durations.
func phaseSum(rec DecisionRecord) time.Duration {
	var sum time.Duration
	for _, p := range rec.Phases {
		sum += p.Dur
	}
	return sum
}

// TestFlightRecorderSingle: one admission and one release land in the
// recorder with verdict metadata, contiguous phases, and the nodes read.
func TestFlightRecorderSingle(t *testing.T) {
	c := testPlatform(t)
	rec := c.EnableFlightRecorder(16)

	v := c.Admit(tenant("t1", 10*units.MiBPerSec))
	if !v.Admitted {
		t.Fatalf("expected admission: %s", v.Reason)
	}
	recs := rec.Snapshot(0)
	if len(recs) != 1 {
		t.Fatalf("recorder depth %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != KindAdmit || r.FlowID != "t1" || !r.Admitted || r.Seq != 1 {
		t.Errorf("record %+v", r)
	}
	if r.Epoch != v.Epoch {
		t.Errorf("record epoch %d, verdict epoch %d", r.Epoch, v.Epoch)
	}
	if want := []string{"encrypt", "ingest", "uplink"}; !reflect.DeepEqual(r.Nodes, want) {
		t.Errorf("nodes read %q, want the sorted path %q", r.Nodes, want)
	}
	if sum, total := phaseSum(r), r.Total; sum > total || total-sum > total/10+time.Millisecond {
		t.Errorf("phase sum %v vs total %v", sum, total)
	}
	// The contiguous span must include the core phases.
	seen := map[string]bool{}
	for _, p := range r.Phases {
		seen[p.Phase] = true
	}
	for _, want := range []string{PhasePrecheck, PhaseQueueWait, PhaseValidateCommit, PhaseHandoff} {
		if !seen[want] {
			t.Errorf("phase %q missing from %+v", want, r.Phases)
		}
	}

	if !c.Release("t1") {
		t.Fatal("release failed")
	}
	recs = rec.Snapshot(1)
	if len(recs) != 1 || recs[0].Kind != KindRelease || !recs[0].Released {
		t.Errorf("newest record after release: %+v", recs)
	}
}

// TestFlightRecorderConcurrent is the acceptance race test: many concurrent
// clients push admissions and releases through the group combiner, and every
// recorded decision's phase durations must sum to (approximately) its total
// latency — the contiguous-marking invariant — while the recorder retains
// verdict metadata for a just-admitted flow. Run with -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	c := testPlatform(t)
	reg := obs.NewRegistry()
	c.EnableObs(reg)
	rec := c.EnableFlightRecorder(4096)

	const clients = 8
	const perClient = 40
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := fmt.Sprintf("c%d-f%d", cl, i)
				// Mixed rates so some admissions reject and some contend;
				// immediate releases keep epochs moving under the sweepers.
				rate := units.Rate(1+cl) * units.MiBPerSec / 4
				if v := c.Admit(tenant(id, rate)); v.Admitted && i%3 == 0 {
					c.Release(id)
				}
			}
		}(cl)
	}
	wg.Wait()

	recs := rec.Snapshot(0)
	if len(recs) < clients*perClient {
		t.Fatalf("recorder holds %d records, want >= %d", len(recs), clients*perClient)
	}
	admitSeen := false
	for _, r := range recs {
		sum, total := phaseSum(r), r.Total
		if sum > total {
			t.Fatalf("record %d (%s %s): phase sum %v exceeds total %v\nphases: %+v",
				r.Seq, r.Kind, r.FlowID, sum, total, r.Phases)
		}
		// Contiguous marking leaves only the unmarked tail (sub-microsecond
		// bookkeeping) unattributed; allow 10% + 1ms scheduling slop.
		if gap := total - sum; gap > total/10+time.Millisecond {
			t.Errorf("record %d (%s %s): %v of %v unattributed\nphases: %+v",
				r.Seq, r.Kind, r.FlowID, gap, total, r.Phases)
		}
		if r.Kind == KindAdmit && r.Admitted {
			admitSeen = true
			if want := []string{"encrypt", "ingest", "uplink"}; !reflect.DeepEqual(r.Nodes, want) {
				t.Errorf("admitted record %d: nodes read %q, want %q", r.Seq, r.Nodes, want)
			}
		}
	}
	if !admitSeen {
		t.Fatal("no admitted decision recorded")
	}

	// Seq numbers are unique and dense enough to order the ring.
	seqs := map[uint64]bool{}
	for _, r := range recs {
		if seqs[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seqs[r.Seq] = true
	}

	// The registry scrape stays lint-clean under the full decision mix.
	text := scrape(t, reg)
	if errs := obs.LintExposition([]byte(text)); len(errs) > 0 {
		t.Errorf("exposition lint after concurrent run: %v", errs)
	}

	// The Chrome trace export of the retained window validates.
	tr := rec.Trace(128)
	if tr.Len() == 0 {
		t.Fatal("empty trace export")
	}
	var buf writerBuf
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTraceBytes(buf.b); err != nil {
		t.Errorf("trace validation: %v", err)
	}
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// TestRingOverwrite: the recorder keeps only the newest records, and the
// group-commit path preserves per-record group sizes.
func TestFlightRecorderOverwrite(t *testing.T) {
	c := testPlatform(t)
	rec := c.EnableFlightRecorder(4)

	for i := 0; i < 10; i++ {
		c.Admit(tenant(fmt.Sprintf("f%d", i), units.MiBPerSec))
	}
	recs := rec.Snapshot(0)
	if len(recs) != 4 || rec.Depth() != 4 {
		t.Fatalf("depth %d, want 4", len(recs))
	}
	if rec.Seq() != 10 {
		t.Errorf("seq %d, want 10", rec.Seq())
	}
	if recs[0].Seq != 10 || recs[3].Seq != 7 {
		t.Errorf("snapshot not newest-first: %d..%d", recs[0].Seq, recs[3].Seq)
	}
}
