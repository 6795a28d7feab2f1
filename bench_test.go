// Package-level benchmarks: one testing.B benchmark per table/figure
// of the paper's evaluation (§6, Appendices A-C), plus per-system
// micro-benchmarks. Each table benchmark regenerates its table once
// per iteration and reports the paper's headline quantities as custom
// metrics, so `go test -bench=Table` reproduces the whole evaluation.
package selfgo_test

import (
	"fmt"
	"testing"
	"time"

	"selfgo"
	"selfgo/internal/bench"
)

// benchTable runs a table generator b.N times.
func benchTable(b *testing.B, gen func(r *bench.Runner) error) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner()
		if err := gen(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableSpeedSummary regenerates the §6.1 speed table (E1) and
// reports the group medians as metrics (percent of optimized C).
func BenchmarkTableSpeedSummary(b *testing.B) {
	var last *bench.Table
	benchTable(b, func(r *bench.Runner) error {
		t, err := r.SpeedSummaryTable()
		last = t
		return err
	})
	if last != nil {
		for _, row := range last.Rows {
			if row[0] == "new SELF" {
				// stanford-oo median %, the paper's headline number.
				var med float64
				fmt.Sscanf(row[3], "%f%%", &med)
				b.ReportMetric(med, "newSELF-stanford-oo-%ofC")
			}
		}
	}
}

// BenchmarkTableCompileSummary regenerates the §6.2/§6.3 compile-time
// and code-size table (E2).
func BenchmarkTableCompileSummary(b *testing.B) {
	benchTable(b, func(r *bench.Runner) error {
		_, err := r.CompileSummaryTable()
		return err
	})
}

// BenchmarkTableSpeed regenerates Appendix A (E3).
func BenchmarkTableSpeed(b *testing.B) {
	benchTable(b, func(r *bench.Runner) error {
		_, err := r.SpeedTable()
		return err
	})
}

// BenchmarkTableCodeSize regenerates Appendix B (E4).
func BenchmarkTableCodeSize(b *testing.B) {
	benchTable(b, func(r *bench.Runner) error {
		_, err := r.CodeSizeTable()
		return err
	})
}

// BenchmarkTableCompileTime regenerates Appendix C (E5).
func BenchmarkTableCompileTime(b *testing.B) {
	benchTable(b, func(r *bench.Runner) error {
		_, err := r.CompileTimeTable()
		return err
	})
}

// BenchmarkTableAblation regenerates the per-technique ablation (A1).
func BenchmarkTableAblation(b *testing.B) {
	benchTable(b, func(r *bench.Runner) error {
		_, err := r.AblationTable()
		return err
	})
}

// BenchmarkCompilerThroughput measures raw compiler speed on the
// richards program (methods compiled per second under new SELF).
func BenchmarkCompilerThroughput(b *testing.B) {
	rb := bench.Richards()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := selfgo.NewSystem(selfgo.NewSELF)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadSource(rb.Source); err != nil {
			b.Fatal(err)
		}
		res, err := sys.Call(rb.Entry)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Compile.Methods)/res.CompileTime.Seconds(), "methods/s")
	}
}

// BenchmarkVMThroughput measures interpreter speed (modelled cycles
// simulated per wall-clock second) on the sieve.
func BenchmarkVMThroughput(b *testing.B) {
	sv, _ := bench.ByName("sieve")
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.LoadSource(sv.Source); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Call(sv.Entry); err != nil {
		b.Fatal(err) // warm the code cache
	}
	b.ResetTimer()
	var cycles int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := sys.Call(sv.Entry)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Run.Cycles
	}
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(cycles)/el/1e6, "Mcycles/s")
	}
}

// benchHost runs one benchmark in steady state (warmed system) and
// reports million guest (modelled) instructions retired per wall
// second — the host-speed headline metric of BENCH_host.json.
func benchHost(b *testing.B, cfg selfgo.Config, bm bench.Benchmark) {
	sys, err := selfgo.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.LoadSource(bm.Source); err != nil {
		b.Fatal(err)
	}
	warm, err := sys.Call(bm.Entry)
	if err != nil {
		b.Fatal(err) // warm the code cache and inline caches
	}
	if bm.HasExpect && warm.Value.I() != bm.Expect {
		b.Fatalf("%s: got %d, want %d", bm.Name, warm.Value.I(), bm.Expect)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		res, err := sys.Call(bm.Entry)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Run.Instrs
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(instrs)/el/1e6, "Mginstrs/s")
	}
}

// BenchmarkHost measures host wall-clock speed of every benchmark
// under new SELF — the same measurement `selfbench -hostbench` records
// into BENCH_host.json, here as sub-benchmarks for `go test -bench`.
func BenchmarkHost(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) { benchHost(b, selfgo.NewSELF, bm) })
	}
}

// BenchmarkHostUnfused is the A/B partner of BenchmarkHost/richards:
// the same program with superinstruction fusion disabled, so
// `go test -bench='Host.*richards'` shows the fusion win directly.
func BenchmarkHostUnfused(b *testing.B) {
	selfgo.WithUnfusedAssembly(func() {
		b.Run("richards", func(b *testing.B) { benchHost(b, selfgo.NewSELF, bench.Richards()) })
	})
}

// BenchmarkCompileTriangle measures one compilation of the §5.3
// example under each configuration.
func BenchmarkCompileTriangle(b *testing.B) {
	const src = `triangleNumber: n = ( | sum <- 0 | 1 upTo: n Do: [ :i | sum: sum + i ]. sum ).`
	for _, cfg := range selfgo.Configs() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			sys, err := selfgo.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.LoadSource(src); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.GraphFor("triangleNumber:"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
