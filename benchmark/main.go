// Command benchmark is the repository's one performance rail: five
// workloads, four end-to-end metrics on each, every output checked
// against a reference, and a traced pass that times the calls into each
// layer from outside. BENCHMARK.json at the repository root fixes the
// names, units and regression bounds; README.md here says why.
//
//	bash benchmark/run.sh                      every workload, untraced then traced, each in a fresh process
//	bash benchmark/run.sh -workload loops.warm -seed 7 -seconds 10 -trace 0
//	bash benchmark/run.sh -compare before.json after.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	var cfg runConfig
	var trace int
	var out string
	var strict, compare bool
	flag.StringVar(&cfg.root, "root", ".", "repository root (BENCHMARK.json, BENCH_guard.json; benchmark/out is written below it)")
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: each workload in a process of its own)")
	flag.Int64Var(&cfg.seed, "seed", 1, "drives the order of ops in a round and the serve.churn expression generator, nothing else")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json; 0.3 under -quick)")
	flag.IntVar(&trace, "trace", 0, "0: untraced window, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke run: short windows, one set-up, the six slowest programs skipped; numbers mean nothing")
	flag.StringVar(&out, "out", "", "also write the result document (JSON) to this file")
	flag.BoolVar(&strict, "strict", false, "exit non-zero when a workload-separation contrast fails")
	flag.BoolVar(&compare, "compare", false, "compare two result documents: -compare A.json B.json")
	flag.Parse()
	cfg.trace = trace != 0

	spec, err := readSpec(cfg.root)
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result documents"))
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1)))
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
		if cfg.quick {
			cfg.seconds = 0.3
		}
	}

	if cfg.workload == "" {
		os.Exit(runAll(cfg, out, strict))
	}
	doc, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := writeDocument(out, &document{Runs: []*runDoc{doc}}); err != nil {
			fatal(err)
		}
	}
	doc.print()
	fmt.Println(doc.contractLine())
	os.Exit(exitCode(doc, strict))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// exitCode: a wrong, refused or faulted op always fails the run; a
// failed contrast fails it under -strict, except under -quick, whose
// windows are too short for the contrasts to mean anything.
func exitCode(doc *runDoc, strict bool) int {
	if doc.Failed > 0 || doc.Attempted == 0 {
		return 1
	}
	if strict && !doc.Quick {
		for _, c := range doc.Contrasts {
			if !c.OK {
				return 1
			}
		}
	}
	return 0
}

// runAll re-executes this binary once per workload and trace mode, so
// that set-up time, allocation and peak memory belong to one workload
// each, and gathers the children's documents into one.
func runAll(cfg runConfig, out string, strict bool) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	tmp := filepath.Join(cfg.root, "benchmark", "out")
	all := &document{}
	code := 0
	for _, def := range workloadDefs {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(tmp, fmt.Sprintf("run-%s-trace%d.json", def.name, trace))
			args := []string{"-root", cfg.root, "-workload", def.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", part}
			if cfg.quick {
				args = append(args, "-quick")
			}
			if strict {
				args = append(args, "-strict")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", def.name, trace, err)
				code = 1
			}
			if d, err := readDocument(part); err == nil {
				all.Runs = append(all.Runs, d.Runs...)
			}
		}
	}
	if len(all.Runs) > 0 {
		env := all.Runs[0].Env
		fmt.Printf("== env  go=%s nproc=%d GOMAXPROCS=%d GOGC=%s host.calib_ns=%.0f commit=%s seed=%d\n",
			env.GoVersion, env.NProc, env.GoMaxProcs, env.GOGC, env.CalibNS, env.Commit, cfg.seed)
	}
	if !crossContrast(all) && strict && !cfg.quick {
		code = 1
	}
	if out != "" {
		if err := writeDocument(out, all); err != nil {
			fatal(err)
		}
	}
	return code
}

// crossContrast is the one separation check that needs two workloads:
// the share of run time charged to sends on sends.warm is at least
// three times that on loops.warm.
func crossContrast(d *document) bool {
	share := map[string]float64{}
	for _, r := range d.Runs {
		if r.Trace == 1 {
			share[r.Workload] = r.Metrics["vm.send_share"].Value
		}
	}
	loops, okL := share["loops.warm"]
	sends, okS := share["sends.warm"]
	if !okL || !okS {
		return true
	}
	ok := sends >= 3*loops
	verdict := "ok"
	if !ok {
		verdict = "FAILED CONTRAST"
	}
	fmt.Printf("== contrast vm.send_share sends.warm >= 3x loops.warm: %s (%.4g vs %.4g)\n", verdict, sends, loops)
	return ok
}
