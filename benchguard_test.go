package selfgo_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"selfgo"
	"selfgo/internal/bench"
)

// TestBenchmarkGuard replays BENCH_guard.json against the current
// build. Each record fixes the check value and modelled cycle count of
// one (benchmark, config) point of the §6.1 speed table; any drift
// means an infrastructure change (cache sharing, VM refactor) altered
// execution semantics or the cost model, which must be a deliberate,
// re-pinned decision — never an accident. (BENCH_host.json and
// BENCH_serve.json are wall-clock measurements, not pins.) Regenerate
// the pins with:
//
//	go run ./cmd/selfbench -table guard -q > BENCH_guard.json
func TestBenchmarkGuard(t *testing.T) {
	const file = "BENCH_guard.json"
	presets, progs := map[string]selfgo.Config{}, map[string]*program{}
	for _, cfg := range selfgo.Configs() {
		presets[cfg.Name] = cfg
	}
	for _, p := range benchmarks {
		progs[p.name] = p
	}
	t.Run(file, func(t *testing.T) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var recs []bench.GuardRecord
		if err := json.Unmarshal(data, &recs); err != nil || len(recs) == 0 {
			t.Fatalf("%s: %d records, %v", file, len(recs), err)
		}
		for _, rec := range recs {
			p, ok := progs[rec.Bench]
			cfg, known := presets[rec.Config]
			if !ok || !known {
				t.Errorf("%s pins unknown benchmark %q or config %q", file, rec.Bench, rec.Config)
				continue
			}
			for _, c := range reduce([]cell{at(p, cfg)}) {
				o := get(t, c)
				if o.Value != fmt.Sprint(rec.Value) {
					t.Errorf("%s: value %s, pinned %d (execution semantics drifted)", c, o.Value, rec.Value)
				}
				if o.Run.Cycles != rec.Cycles {
					t.Errorf("%s: cycles %d, pinned %d (cost model drifted)", c, o.Run.Cycles, rec.Cycles)
				}
			}
		}
	})
}
