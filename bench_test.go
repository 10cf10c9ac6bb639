// Benchmarks regenerating the paper's tables and figures. One benchmark per
// evaluation artifact (run `go test -bench=. -benchmem`):
//
//	BenchmarkFigure1Curves        Figure 1  curve construction and bounds
//	BenchmarkTable1Blast*         Table 1   BLAST model / simulation / queueing
//	BenchmarkFigure4BlastCurves   Figure 4  BLAST curve sampling + sim trace
//	BenchmarkBlastBounds          §4.2      job-traversal corroboration
//	BenchmarkTable2Stages         Table 2   LZ4/AES software-kernel rates
//	BenchmarkTable3Bitw*          Table 3   BITW model / simulation / queueing
//	BenchmarkFigure10BitwCurves   Figure 10 BITW curve sampling + sim trace
//	BenchmarkBitwBounds           §5        job-traversal corroboration
//
// plus ablation benchmarks for the design choices DESIGN.md calls out
// (exact vs sampled convolution, deconvolution candidates, simulator event
// throughput).
package streamcalc_test

import (
	"fmt"
	"testing"
	"time"

	"streamcalc/internal/admit"
	"streamcalc/internal/aesstream"
	"streamcalc/internal/apps/bitwmodel"
	"streamcalc/internal/apps/blastmodel"
	"streamcalc/internal/blast"
	"streamcalc/internal/core"
	"streamcalc/internal/curve"
	"streamcalc/internal/des"
	"streamcalc/internal/gen"
	"streamcalc/internal/lz4"
	"streamcalc/internal/queueing"
	"streamcalc/internal/sim"
	"streamcalc/internal/stream"
	"streamcalc/internal/units"
)

// --- Figure 1 ---------------------------------------------------------------

func BenchmarkFigure1Curves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alpha := curve.Affine(1, 4)
		beta := curve.RateLatency(2, 3)
		gamma := curve.RateLatency(3, 1)
		_ = curve.HDev(alpha, beta)
		_ = curve.VDev(alpha, beta)
		conv := curve.Convolve(alpha, gamma)
		if _, ok := curve.Deconvolve(conv, beta); !ok {
			b.Fatal("unbounded")
		}
	}
}

// --- Table 1 (BLAST) --------------------------------------------------------

func BenchmarkTable1BlastModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := blastmodel.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		if a.ThroughputLower <= 0 {
			b.Fatal("bad bound")
		}
	}
}

func BenchmarkTable1BlastSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := blastmodel.SimulateThroughput(128*units.MiB, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Throughput <= 0 {
			b.Fatal("bad throughput")
		}
	}
}

func BenchmarkTable1BlastQueueing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := queueing.Analyze(blastmodel.QueueingNetwork()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4 ---------------------------------------------------------------

func BenchmarkFigure4BlastCurves(b *testing.B) {
	a, err := blastmodel.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, c := range []curve.Curve{a.AlphaPrime, a.Beta, a.OutputBound} {
			xs, _ := c.Sample(0.120, 480)
			if len(xs) != 481 {
				b.Fatal("bad sample")
			}
		}
	}
}

// --- §4.2 bounds ------------------------------------------------------------

func BenchmarkBlastBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := blastmodel.SimulateJobTraversal(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.DelayMax <= 0 {
			b.Fatal("bad delay")
		}
	}
}

// --- Table 2 (software kernels) ----------------------------------------------

func BenchmarkTable2Stages(b *testing.B) {
	const size = 4 << 20
	avg := gen.Text(size, 0.62, 1)
	compressed := lz4.Compress(nil, avg)
	key := make([]byte, aesstream.KeySize)
	enc, _ := aesstream.New(key, 1)
	ct := enc.Encrypt(compressed, 4096)

	b.Run("Compress", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			lz4.Compress(nil, avg)
		}
	})
	b.Run("Encrypt", func(b *testing.B) {
		b.SetBytes(int64(len(compressed)))
		for i := 0; i < b.N; i++ {
			enc.Encrypt(compressed, 4096)
		}
	})
	b.Run("Decrypt", func(b *testing.B) {
		dec, _ := aesstream.New(key, 1)
		b.SetBytes(int64(len(compressed)))
		for i := 0; i < b.N; i++ {
			if _, err := dec.Decrypt(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decompress", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			if _, err := lz4.Decompress(nil, compressed, size); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BlastSeedMatch", func(b *testing.B) {
		query := gen.DNA(256, 2)
		db := gen.DNA(1<<20, 3)
		qi, err := blast.NewQueryIndex(query)
		if err != nil {
			b.Fatal(err)
		}
		packed := blast.Pack2Bit(db)
		b.SetBytes(int64(len(packed)))
		b.ResetTimer()
		var pos []uint32
		for i := 0; i < b.N; i++ {
			pos = blast.SeedMatch(qi, packed, len(db), pos[:0])
		}
	})
}

// --- Table 3 (bump in the wire) ----------------------------------------------

func BenchmarkTable3BitwModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := bitwmodel.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		if a.ThroughputUpper <= 0 {
			b.Fatal("bad bound")
		}
	}
}

func BenchmarkTable3BitwSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bitwmodel.SimulateThroughput(8*units.MiB, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Throughput <= 0 {
			b.Fatal("bad throughput")
		}
	}
}

func BenchmarkTable3BitwQueueing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := queueing.Analyze(bitwmodel.QueueingNetwork()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10 ----------------------------------------------------------------

func BenchmarkFigure10BitwCurves(b *testing.B) {
	a, err := bitwmodel.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, c := range []curve.Curve{a.AlphaPrime, a.Beta, a.OutputBound, a.Gamma} {
			xs, _ := c.Sample(100e-6, 400)
			if len(xs) != 401 {
				b.Fatal("bad sample")
			}
		}
	}
}

// --- §5 bounds -----------------------------------------------------------------

func BenchmarkBitwBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bitwmodel.SimulateJobTraversal(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.DelayMax <= 0 {
			b.Fatal("bad delay")
		}
	}
}

// --- Ablations ------------------------------------------------------------------

// Exact concave/convex convolution vs the sampled fallback: the closed
// forms are what keep pipeline analysis cheap.
func BenchmarkAblationConvolveExact(b *testing.B) {
	f := curve.RateLatency(4, 3)
	g := curve.RateLatency(7, 2)
	for i := 0; i < b.N; i++ {
		curve.Convolve(f, g)
	}
}

func BenchmarkAblationConvolveSampled(b *testing.B) {
	f := curve.RateLatency(4, 3)
	g := curve.RateLatency(7, 2)
	for i := 0; i < b.N; i++ {
		curve.ConvolveSampled(f, g, 20, 512)
	}
}

// Exact deconvolution via the candidate-max algorithm.
func BenchmarkAblationDeconvolve(b *testing.B) {
	f := curve.Min(curve.Affine(5, 1), curve.Affine(1, 9))
	g := curve.RateLatency(6, 2)
	for i := 0; i < b.N; i++ {
		if _, ok := curve.Deconvolve(f, g); !ok {
			b.Fatal("unbounded")
		}
	}
}

// Raw event throughput of the DES kernel.
func BenchmarkAblationDESEvents(b *testing.B) {
	var s des.Simulator
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.Schedule(1, tick)
		}
	}
	s.Schedule(1, tick)
	b.ResetTimer()
	s.RunAll(uint64(b.N) + 1)
}

// End-to-end simulator cost per simulated byte.
func BenchmarkAblationSimPipeline(b *testing.B) {
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		p := sim.New(sim.SourceConfig{Rate: 1e8, PacketSize: 4096, TotalInput: 1 << 20}, uint64(i)).
			Add(sim.StageFromRate("a", 2e8, 3e8, 4096, 4096)).
			Add(sim.StageFromRate("b", 1.5e8, 2e8, 16384, 16384)).
			Add(sim.StageFromRate("c", 2e8, 2e8, 4096, 4096))
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks ---------------------------------------------------

// DAG analysis cost (fork/join of the dagflow example's shape).
func BenchmarkAblationGraphAnalysis(b *testing.B) {
	g := core.Graph{
		Arrival: core.Arrival{Rate: 120 * units.MiBPerSec, Burst: 2 * units.MiB},
		Nodes: []core.Node{
			{Name: "decode", Rate: 400 * units.MiBPerSec, JobIn: 1, JobOut: 1},
			{Name: "detect", Rate: 40 * units.MiBPerSec, JobIn: 1, JobOut: 1},
			{Name: "archive", Rate: 300 * units.MiBPerSec, JobIn: 1, JobOut: 1},
			{Name: "uplink", Rate: 100 * units.MiBPerSec, JobIn: 1, JobOut: 1},
		},
		Edges: []core.Edge{
			{From: "", To: "decode"},
			{From: "decode", To: "detect", Fraction: 0.2},
			{From: "decode", To: "archive"},
			{From: "detect", To: "uplink"},
			{From: "archive", To: "uplink"},
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeGraph(g); err != nil {
			b.Fatal(err)
		}
	}
}

// Mercator-style scheduling throughput on the BLASTN dataflow.
func BenchmarkAblationMercatorBlast(b *testing.B) {
	query := gen.DNA(256, 60)
	db, _ := gen.DNAWithPlants(1<<18, query, 1<<15, 61)
	b.SetBytes(1 << 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := blast.RunDataflow(db, query, 28, blast.DataflowConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Live concurrent pipeline throughput (compress+encrypt+decrypt+decompress).
func BenchmarkAblationStreamRuntime(b *testing.B) {
	data := gen.Text(1<<21, 0.6, 62)
	key := make([]byte, aesstream.KeySize)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, _ := stream.EncryptAES(key, uint64(i))
		dec, _ := stream.DecryptAES(key, uint64(i))
		p := stream.New("bench", 4).
			Add(stream.CompressLZ4()).
			Add(enc).
			Add(dec).
			Add(stream.DecompressLZ4())
		if _, err := p.Run(stream.SliceSource(data, 65536)); err != nil {
			b.Fatal(err)
		}
	}
}

// Residual-service computation cost.
func BenchmarkAblationResidualService(b *testing.B) {
	beta := curve.RateLatency(10, 2)
	cross := curve.Min(curve.Affine(3, 4), curve.Affine(5, 1))
	for i := 0; i < b.N; i++ {
		if _, ok := curve.ResidualService(beta, cross); !ok {
			b.Fatal("starved")
		}
	}
}

// --- Admission control --------------------------------------------------------

// admitBenchPlatform builds a 10-node platform preloaded with 50 admitted
// tenant flows, the steady state an online controller decides against.
func admitBenchPlatform(b *testing.B) *admit.Controller {
	b.Helper()
	nodes := make([]core.Node, 10)
	names := make([]string, 10)
	for i := range nodes {
		names[i] = fmt.Sprintf("n%d", i)
		nodes[i] = core.Node{
			Name: names[i], Rate: 2 * units.GiBPerSec, Latency: 100 * time.Microsecond,
			JobIn: 4 * units.KiB, JobOut: 4 * units.KiB, MaxPacket: 4 * units.KiB,
		}
	}
	c, err := admit.New("bench", nodes)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		from := i % 5
		f := admit.Flow{
			ID:      fmt.Sprintf("base-%d", i),
			Arrival: core.Arrival{Rate: 10 * units.MiBPerSec, Burst: 64 * units.KiB, MaxPacket: 4 * units.KiB},
			Path:    names[from : from+5],
			SLO:     admit.SLO{MaxDelay: time.Second, MinThroughput: 10 * units.MiBPerSec},
		}
		if v := c.Admit(f); !v.Admitted {
			b.Fatalf("preload admit %d: %s", i, v.Reason)
		}
	}
	return c
}

// Full admission decision against 50 co-resident flows: candidate analysis
// plus the victim re-checks, then release to restore the platform.
func BenchmarkAdmit(b *testing.B) {
	c := admitBenchPlatform(b)
	f := admit.Flow{
		ID:      "probe",
		Arrival: core.Arrival{Rate: 20 * units.MiBPerSec, Burst: 128 * units.KiB, MaxPacket: 4 * units.KiB},
		Path:    []string{"n2", "n3", "n4", "n5", "n6"},
		SLO:     admit.SLO{MaxDelay: time.Second, MinThroughput: 20 * units.MiBPerSec},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := c.Admit(f)
		if !v.Admitted {
			b.Fatalf("probe rejected: %s", v.Reason)
		}
		c.Release("probe")
	}
}

// Repeated refusal: a rejected spec re-checked on an unchanged platform is
// decided again each time.
func BenchmarkAdmitRefused(b *testing.B) {
	c := admitBenchPlatform(b)
	hog := admit.Flow{
		ID:      "hog",
		Arrival: core.Arrival{Rate: 3 * units.GiBPerSec, Burst: units.MiB, MaxPacket: 4 * units.KiB},
		Path:    []string{"n0", "n1", "n2", "n3", "n4"},
	}
	if v := c.Admit(hog); v.Admitted {
		b.Fatal("hog must be rejected")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := c.Admit(hog)
		if v.Admitted {
			b.Fatalf("expected a rejection, got %+v", v)
		}
	}
}
