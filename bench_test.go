// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per figure), plus simulator micro-benchmarks.
//
// Each figure benchmark runs the complete (workload × scheme) matrix the
// paper plots and reports the headline geomean(s) as custom metrics, so
// `go test -bench=Fig -benchmem` reproduces the evaluation end to end:
//
//	BenchmarkFig3  — SPEC CPU2006 vs MuonTrap/InvisiSpec/STT   (paper Fig. 3)
//	BenchmarkFig4  — Parsec vs the same schemes                 (paper Fig. 4)
//	BenchmarkFig5  — filter-cache size sweep                    (paper Fig. 5)
//	BenchmarkFig6  — filter-cache associativity sweep           (paper Fig. 6)
//	BenchmarkFig7  — store broadcast-invalidate rate            (paper Fig. 7)
//	BenchmarkFig8  — cumulative mechanisms, Parsec              (paper Fig. 8)
//	BenchmarkFig9  — cumulative mechanisms, SPEC                (paper Fig. 9)
//
// The per-workload rows behind each metric print with -v via b.Log, and
// cmd/figures renders the same tables standalone.
package repro

import (
	"context"
	"testing"

	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/workload"
	"repro/muontrap"
)

// benchScale sizes the figure regenerations for the bench harness.
const benchScale = 0.12

// reportSeries emits each series' geomean as a benchmark metric.
func reportSeries(b *testing.B, id muontrap.FigureID) {
	b.Helper()
	t, err := muontrap.NewRunner(muontrap.WithScale(benchScale)).Figure(context.Background(), id)
	if err != nil {
		b.Fatal(err)
	}
	gm := t.GeomeanRow()
	for i, s := range t.Series {
		b.ReportMetric(gm[i], "geomean-"+s.Name)
	}
	b.Log("\n" + t.String())
}

func BenchmarkFig3SPECComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, muontrap.Fig3)
	}
}

func BenchmarkFig4ParsecComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, muontrap.Fig4)
	}
}

func BenchmarkFig5FilterSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, muontrap.Fig5)
	}
}

func BenchmarkFig6FilterAssocSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, muontrap.Fig6)
	}
}

func BenchmarkFig7StoreBroadcastRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, muontrap.Fig7)
	}
}

func BenchmarkFig8ParsecCumulative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, muontrap.Fig8)
	}
}

func BenchmarkFig9SPECCumulative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSeries(b, muontrap.Fig9)
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: committed
// instructions per wall-clock second on one representative kernel per
// scheme (simulated-instructions/s reported as a custom metric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	r := muontrap.NewRunner()
	for _, scheme := range []muontrap.Scheme{"insecure", "muontrap", "invisispec-future", "stt-future"} {
		scheme := scheme
		b.Run(string(scheme), func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				res, err := r.Run(context.Background(), muontrap.RunSpec{
					Workload: "hmmer", Scheme: scheme, Scale: 0.3,
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.Instructions
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}

// BenchmarkMultiCoreThroughput measures simulator throughput
// (sim-insts/s) on a 4-core Parsec workload under MuonTrap, where
// coherence, filter-cache flushes and the OS timer are on the run loop.
func BenchmarkMultiCoreThroughput(b *testing.B) {
	spec, _ := workload.ByName("canneal")
	opt := figures.Options{Scale: benchScale}
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := figures.RunOne(context.Background(), spec, defense.MuonTrap(), opt)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Committed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkAttackSpectre measures one full Spectre attack trial
// (train, fire, switch, probe) on both the vulnerable and defended
// configurations.
func BenchmarkAttackSpectre(b *testing.B) {
	for _, scheme := range []muontrap.Scheme{"insecure", "muontrap"} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := muontrap.Attack(muontrap.AttackSpectre, scheme, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSEUpgrade quantifies the asynchronous SE→E upgrade's
// value (DESIGN.md decision 5): with coherence protections but upgrades
// disabled, every store to a loaded line pays an exclusive upgrade.
func BenchmarkAblationSEUpgrade(b *testing.B) {
	spec, _ := workload.ByName("lbm")
	opt := figures.Options{Scale: benchScale}
	for _, cfg := range []struct {
		name string
		sch  defense.Scheme
	}{
		{"with-se", defense.MuonTrap()},
		{"fcache-no-coherence", defense.FcacheOnly()},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := figures.RunOne(context.Background(), spec, cfg.sch, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "cycles")
			}
		})
	}
}
