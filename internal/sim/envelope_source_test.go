package sim

import (
	"testing"

	"streamcalc/internal/core"
)

func TestEnvelopeSourceRespectsBuckets(t *testing.T) {
	// Peak 1000 B/s with 50 B burst, sustained 200 B/s with 500 B burst.
	p := New(SourceConfig{
		PacketSize: 10,
		TotalInput: 4000,
		Envelope: []EnvelopeBucket{
			{Rate: 1000, Burst: 50},
			{Rate: 200, Burst: 500},
		},
	}, 41).Add(StageFromRate("fast", 1e6, 1e6, 10, 10))
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputInput != 4000 {
		t.Fatalf("delivered %v", res.OutputInput)
	}
	// The emission trajectory must never exceed either bucket.
	for _, pt := range res.Input {
		tt := pt.T.Seconds()
		for _, b := range []struct{ r, bb float64 }{{1000, 50}, {200, 500}} {
			if float64(pt.Cum) > b.bb+b.r*tt+10+1e-6 { // +packet granularity
				t.Fatalf("emission %v at %v exceeds bucket (%v, %v)", pt.Cum, tt, b.r, b.bb)
			}
		}
	}
	// Long-run throughput approaches the sustained bucket rate.
	if tp := float64(res.Throughput); tp > 230 || tp < 150 {
		t.Errorf("throughput %v, want ~200 (sustained bucket)", tp)
	}
}

// The greedy envelope source is the worst case for the multi-bucket NC
// bounds: simulated delays must stay within them.
func TestEnvelopeSourceWithinMultiBucketBounds(t *testing.T) {
	p := New(SourceConfig{
		PacketSize: 10,
		TotalInput: 20000,
		Envelope: []EnvelopeBucket{
			{Rate: 1000, Burst: 50},
			{Rate: 200, Burst: 500},
		},
	}, 42).Add(StageFromRate("srv", 400, 400, 10, 10))
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	cp := core.Pipeline{
		Arrival: core.Arrival{
			Rate: 1000, Burst: 50, MaxPacket: 10,
			Extra: []core.Bucket{{Rate: 200, Burst: 500}},
		},
		Nodes: []core.Node{{Name: "srv", Rate: 400, JobIn: 10, JobOut: 10, MaxPacket: 10}},
	}
	a, err := core.Analyze(cp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overloaded {
		t.Fatal("stable configuration expected")
	}
	if res.DelayMax > a.DelayBound {
		t.Errorf("sim delay %v exceeds multi-bucket NC bound %v", res.DelayMax, a.DelayBound)
	}
	if res.MaxBacklog > a.BacklogBound+10 {
		t.Errorf("sim backlog %v exceeds bound %v", res.MaxBacklog, a.BacklogBound)
	}
	// The bound should also be reasonably tight against the greedy
	// (worst-case) source: within 3x.
	if a.DelayBound > 3*res.DelayMax {
		t.Errorf("bound %v very loose vs greedy worst case %v", a.DelayBound, res.DelayMax)
	}
}

func TestEnvelopeSourceValidation(t *testing.T) {
	p := New(SourceConfig{
		PacketSize: 10, TotalInput: 100,
		Envelope: []EnvelopeBucket{{Rate: 0, Burst: 1}},
	}, 43).Add(StageFromRate("s", 100, 100, 10, 10))
	if _, err := p.Run(); err == nil {
		t.Error("zero-rate bucket must fail")
	}
}

// An envelope source offers no more than its envelope at any emission
// instant, even with SourceConfig.Burst set beside it (the admission replay
// sets both): the greedy playback already emits the envelope's burst at t = 0.
func TestEnvelopeSourceNeverExceedsEnvelope(t *testing.T) {
	env := []EnvelopeBucket{{Rate: 5000, Burst: 1200}, {Rate: 20000, Burst: 300}}
	p := New(SourceConfig{
		Rate:       5000,
		PacketSize: 100,
		Burst:      1100,
		TotalInput: 20000,
		Envelope:   env,
	}, 44).Add(StageFromRate("srv", 8000, 8000, 100, 100))
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.InputBytes) != 20000 {
		t.Fatalf("offered %v, want 20000", res.InputBytes)
	}
	for _, pt := range res.Input {
		// Trace times are truncated to the nanosecond; allow what the
		// fastest bucket adds in one.
		tt := pt.T.Seconds()
		for _, b := range env {
			if lim := float64(b.Burst) + float64(b.Rate)*(tt+1e-9) + 1e-6; float64(pt.Cum) > lim {
				t.Fatalf("offered %v B by %v, over bucket (%v, %v)'s %v B", pt.Cum, pt.T, b.Rate, b.Burst, lim)
			}
		}
	}
}
