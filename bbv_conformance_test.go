package selfgo

import "testing"

// strategyVariants derives the three head-to-head configurations from
// the paper's new compiler: the eager system as measured (split), lazy
// basic-block versioning replacing the eager analyses (bbv), and
// versioning layered on top of the full eager repertoire (both).
func strategyVariants() []Config {
	split := NewSELF
	split.Name = "new SELF (split)"
	bbv := NewSELF
	bbv.Name = "new SELF (bbv)"
	bbv.Strategy = StrategyBBV
	both := NewSELF
	both.Name = "new SELF (both)"
	both.Strategy = StrategyBoth
	return []Config{split, bbv, both}
}

// TestBBVConformanceAcrossStrategies runs every conformance program
// under split, bbv and both: all three strategies must compute
// bit-identical values. Modelled cycles legitimately differ (versioning
// charges different instruction streams) so they are asserted recorded,
// never equal — across strategies; within bbv and both, fused and
// unfused code must run bit-identically.
func TestBBVConformanceAcrossStrategies(t *testing.T) {
	for _, p := range conformancePrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			var ref int64
			var refSet bool
			for _, cfg := range strategyVariants() {
				sys := newSys(t, cfg, p.src)
				res, err := sys.Call(p.sel, p.args...)
				if err != nil {
					t.Fatalf("[%s] Call(%s): %v", cfg.Name, p.sel, err)
				}
				got := res.Value.I()
				if !refSet {
					ref, refSet = got, true
					if p.want != 0 && got != p.want {
						t.Errorf("[%s] got %d, want %d", cfg.Name, got, p.want)
					}
				} else if got != ref {
					t.Errorf("[%s] got %d, split got %d", cfg.Name, got, ref)
				}
				if res.Run.Cycles <= 0 {
					t.Errorf("[%s] no cycles recorded", cfg.Name)
				}
				switch cfg.Strategy {
				case StrategySplit:
					if res.Run.BBVVersions != 0 || res.Run.BBVElidedCtx != 0 || res.Run.BBVElidedShape != 0 {
						t.Errorf("[%s] split must not version: %+v", cfg.Name, res.Run)
					}
				default:
					if res.Run.BBVVersions <= 0 {
						t.Errorf("[%s] no versions materialized", cfg.Name)
					}
					if res.Run.BBVVersionBytes <= 0 {
						t.Errorf("[%s] no modelled version bytes recorded", cfg.Name)
					}
					// Versions over fused code are the unfused stream's.
					cfg.NoSuperinstructions = true
					plain, err := newSys(t, cfg, p.src).Call(p.sel, p.args...)
					if err != nil || plain.Value.I() != got || plain.Run != res.Run || plain.Compile != res.Compile {
						t.Errorf("[%s] fusion changed the run (%v):\nfused:   %d %+v %+v\nunfused: %+v",
							cfg.Name, err, got, res.Run, res.Compile, plain)
					}
				}
			}
		})
	}
}
