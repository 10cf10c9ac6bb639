package sim

import (
	"fmt"
	"testing"

	"streamcalc/internal/units"
)

// benchBuild is a quick-mode-sized replication workload: a three-stage
// pipeline pushing ~100k events per run, representative of the per-seed
// work the experiments driver and admit -validate replay fan out.
func benchBuild(seed uint64) *Pipeline {
	return New(SourceConfig{
		Rate:       200 * units.MiBPerSec,
		PacketSize: 4 * units.KiB,
		Burst:      64 * units.KiB,
		TotalInput: 32 * units.MiB,
	}, seed).
		Add(StageFromRate("compress", 300*units.MiBPerSec, 500*units.MiBPerSec, 4*units.KiB, 2*units.KiB)).
		Add(StageFromRate("network", 400*units.MiBPerSec, 400*units.MiBPerSec, 2*units.KiB, 2*units.KiB)).
		Add(StageFromRate("decompress", 600*units.MiBPerSec, 800*units.MiBPerSec, 2*units.KiB, 4*units.KiB))
}

// BenchmarkReplicateParallel measures the replication fan-out at fixed
// worker counts; the workers=1 case is the sequential baseline, so the
// speedup in CI's bench_replicate.txt reads directly as ns/op(1) / ns/op(N).
func BenchmarkReplicateParallel(b *testing.B) {
	const runs = 8
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := ReplicateParallel(benchBuild, 1000, runs, ReplicateOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Runs != runs {
					b.Fatalf("runs = %d", rep.Runs)
				}
			}
		})
	}
}
