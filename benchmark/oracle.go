package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"selfgo/internal/bench"
)

// reference is what a corpus program must return. Value and Cycles come
// from the committed BENCH_guard.json row for (program, "new SELF"),
// Expect from the hand-verified constant the program's definition
// carries; neither comes from the run under test.
type reference struct {
	Value, Cycles int64
	Expect        int64
	HasExpect     bool
}

const guardConfig = "new SELF"

func loadOracle(root string, programs []bench.Benchmark) (map[string]reference, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCH_guard.json"))
	if err != nil {
		return nil, err
	}
	var rows []struct {
		Bench, Config string
		Value, Cycles int64
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("BENCH_guard.json: %w", err)
	}
	out := map[string]reference{}
	for _, b := range programs {
		found := false
		for _, r := range rows {
			if r.Bench == b.Name && r.Config == guardConfig {
				out[b.Name] = reference{r.Value, r.Cycles, b.Expect, b.HasExpect}
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("BENCH_guard.json has no row for (%s, %s)", b.Name, guardConfig)
		}
	}
	return out, nil
}

// checkCold judges a first call on a fresh system, the case the guard
// file pins exactly.
func (r reference) checkCold(value, cycles int64) error {
	if err := r.checkValue(value); err != nil {
		return err
	}
	if cycles != r.Cycles {
		return fmt.Errorf("cycles %d, guard says %d", cycles, r.Cycles)
	}
	return nil
}

// checkWarm judges a later call. A warm run skips the inline-cache
// misses of the first, so its modelled cycles sit at or just below the
// guard's; warmCycles is what this program's first warm lap reported
// and every later lap must repeat it exactly.
func (r reference) checkWarm(value, cycles, warmCycles int64) error {
	if err := r.checkValue(value); err != nil {
		return err
	}
	if cycles > r.Cycles || cycles != warmCycles {
		return fmt.Errorf("warm cycles %d (first warm lap %d, guard's cold %d)", cycles, warmCycles, r.Cycles)
	}
	return nil
}

func (r reference) checkValue(value int64) error {
	if value != r.Value {
		return fmt.Errorf("value %d, guard says %d", value, r.Value)
	}
	if r.HasExpect && value != r.Expect {
		return fmt.Errorf("value %d, program expects %d", value, r.Expect)
	}
	return nil
}
