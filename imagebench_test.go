package selfgo_test

import (
	"fmt"
	"testing"

	"selfgo"
)

// TestImageRoundTripBenchmarks extends the round-trip oracle to the
// full benchmark suite: every benchmark must run bit-identically — check
// value, RunStats, compile record, compiled code — on a world restored
// from an image saved right after loading as on a world that was never
// saved. Any divergence means the image either lost state or
// resurrected state that should not exist.
func TestImageRoundTripBenchmarks(t *testing.T) {
	for _, c := range reduce(cells(benchmarks, imaged, selfgo.NewSELF)) {
		t.Run(c.p.name, func(t *testing.T) {
			if got, _ := identical(t, c); c.p.want != 0 && got.Value != fmt.Sprint(c.p.want) {
				t.Errorf("%s: restored check value %s, want %d", c, got.Value, c.p.want)
			}
		})
	}
}

// TestImageAcrossStrategies: an image saved after a warm run under one
// strategy boots under each strategy; pre-promotion compiles every
// manifest entry at its recorded tier under the booting strategy (0
// failures) and the booted system computes what a plain system under
// that strategy computes. The saving run itself is bit-identical to a
// plain one. Over the corpus's light programs (the conformance
// programs and the small benchmarks): twelve runs a program make
// this the matrix's most expensive row per program.
func TestImageAcrossStrategies(t *testing.T) {
	for _, from := range strategies {
		for _, to := range strategies {
			var cs []cell
			for _, c := range cells(corpus, warmBoot, withStrategy(selfgo.NewSELF, to)) {
				if c.from = from; c.p.light {
					cs = append(cs, c)
				}
			}
			if cs = reduce(cs); len(cs) == 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s-to-%s", from, to), func(t *testing.T) {
				for _, c := range cs {
					save := at(c.p, withStrategy(selfgo.NewSELF, from)).as(warmSave)
					identical(t, save)
					boot := get(t, c)
					if boot.PrepromoteFailed != 0 {
						t.Errorf("%s: %d manifest entries failed to prepromote", c, boot.PrepromoteFailed)
					}
					if plain := get(t, c.as(shipped)); boot.Msg != "" || boot.Value != plain.Value {
						t.Errorf("%s computed %s %s, a plain system %s", c, boot.Value, boot.Msg, plain.Value)
					}
				}
			})
		}
	}
}
