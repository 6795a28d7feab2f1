package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"selfgo"
)

// Limits bounds a concurrent measurement: a wall-clock timeout applied
// to every worker's context, and a per-run Budget installed on every
// worker VM. Zero fields are unlimited.
type Limits struct {
	Timeout time.Duration
	Budget  selfgo.Budget
}

// ConcurrentMeasurement is one benchmark run on N worker VMs sharing a
// single world and code cache.
type ConcurrentMeasurement struct {
	Bench   string
	Config  string
	Workers int
	Reps    int // runs per worker

	Value       int64 // the check value (identical across all runs)
	Elapsed     time.Duration
	TotalCycles int64 // modelled cycles summed over every run
	Methods     int   // compilations performed (summed across workers)

	Cache selfgo.CacheStats
}

// RunsPerSec is wall-clock throughput across all workers.
func (m *ConcurrentMeasurement) RunsPerSec() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Workers*m.Reps) / m.Elapsed.Seconds()
}

// CompileOnce reports whether every (method, receiver map)
// customization was compiled exactly once — the shared cache's
// single-flight guarantee, checked from its counters.
func (m *ConcurrentMeasurement) CompileOnce() bool {
	return m.Cache.CompileOnce()
}

// RunConcurrentLimits measures b under cfg with `workers` goroutines
// sharing one world and one code cache, each running the benchmark
// `reps` times. All workers start cold and simultaneously, so the first
// wave of requests exercises the cache's single-flight path; every
// run's check value is verified against Expect (when known) and
// against the other runs. Under lim, runaway or hung benchmark programs
// abort with an error (KindOutOfFuel, KindCancelled) instead of
// wedging the measurement harness.
func RunConcurrentLimits(b Benchmark, cfg selfgo.Config, workers, reps int, lim Limits) (*ConcurrentMeasurement, error) {
	if !b.ParallelSafe {
		return nil, fmt.Errorf("%s mutates lobby globals and cannot run on concurrent workers", b.Name)
	}
	if workers < 1 || reps < 1 {
		return nil, fmt.Errorf("workers and reps must be positive")
	}
	root, err := selfgo.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := root.LoadSource(b.Source); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	root.SetBudget(lim.Budget)
	systems := make([]*selfgo.System, workers)
	systems[0] = root
	for i := 1; i < workers; i++ {
		systems[i] = root.Fork()
	}
	ctx := context.Background()
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}

	values := make([]int64, workers)
	cycles := make([]int64, workers)
	methods := make([]int, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range systems {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < reps; r++ {
				res, err := systems[i].CallCtx(ctx, b.Entry)
				if err != nil {
					errs[i] = fmt.Errorf("worker %d rep %d: %w", i, r, err)
					return
				}
				if b.HasExpect && res.Value.I() != b.Expect {
					errs[i] = fmt.Errorf("worker %d rep %d: got %d, want %d", i, r, res.Value.I(), b.Expect)
					return
				}
				if r == 0 {
					values[i] = res.Value.I()
				} else if res.Value.I() != values[i] {
					errs[i] = fmt.Errorf("worker %d rep %d: got %d, previous reps got %d", i, r, res.Value.I(), values[i])
					return
				}
				cycles[i] += res.Run.Cycles
				// Compile counters are cumulative per VM; read the final
				// value after the loop.
				methods[i] = res.Compile.Methods
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	m := &ConcurrentMeasurement{
		Bench: b.Name, Config: cfg.Name,
		Workers: workers, Reps: reps,
		Value: values[0], Elapsed: elapsed,
	}
	for i := range systems {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s under %s: %w", b.Name, cfg.Name, errs[i])
		}
		if values[i] != m.Value {
			return nil, fmt.Errorf("%s under %s: worker %d computed %d but worker 0 computed %d",
				b.Name, cfg.Name, i, values[i], m.Value)
		}
		m.TotalCycles += cycles[i]
		m.Methods += methods[i]
	}
	m.Cache = root.CacheStats()
	return m, nil
}
