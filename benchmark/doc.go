package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one named number with its unit, as BENCHMARK.json's
// contract prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// layerRow is one row of the traced pass's self-time table.
type layerRow struct {
	Layer   string  `json:"layer"`
	SelfUS  float64 `json:"self_us_per_op"`
	Share   float64 `json:"share"`
	Comment string  `json:"comment,omitempty"`
}

// programRow is the per-program evidence the README's membership table
// is copied from.
type programRow struct {
	Program      string  `json:"program"`
	OpMS         float64 `json:"op_ms"`
	CompileShare float64 `json:"compile_share"`
	Instrs       int64   `json:"instrs"`
	SendsPerK    float64 `json:"sends_calls_blockvalues_per_1000_instrs"`
	MInstrPerS   float64 `json:"guest_minstr_per_s"`
}

// contrast is one workload-separation assertion.
type contrast struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type envBlock struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	CalibNS    float64 `json:"host.calib_ns"`
	Commit     string  `json:"git_commit"`
}

// runDoc is everything one process measured: one workload, traced or
// not.
type runDoc struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     int              `json:"trace"`
	Quick     bool             `json:"quick,omitempty"`
	Attempted int              `json:"ops_attempted"`
	OK        int              `json:"ops_ok"`
	Failed    int              `json:"ops_failed"`
	Metrics   metrics          `json:"metrics"`
	Info      metrics          `json:"info,omitempty"`
	Counts    map[string]int64 `json:"counts,omitempty"`
	Layers    []layerRow       `json:"layers,omitempty"`
	Programs  []programRow     `json:"programs,omitempty"`
	Contrasts []contrast       `json:"contrasts,omitempty"`
	Failures  []string         `json:"failures,omitempty"`
	Env       envBlock         `json:"env"`
}

// count adds a pass's ops to the run's totals.
func (r *runDoc) count(samples []sample) {
	for _, s := range samples {
		r.Attempted++
		if s.ok {
			r.OK++
		}
	}
}

// document is what -out writes and -compare reads: one run per
// (workload, trace) pair.
type document struct {
	Runs []*runDoc `json:"runs"`
}

func writeDocument(path string, d *document) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// contractLine is the one JSON object the benchmark contract wants as
// the last line of standard output.
func (r *runDoc) contractLine() string {
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, r.Metrics}
	data, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(data)
}

// print renders the run for a person: every metric by name with its
// unit, then the tables the traced pass adds.
func (r *runDoc) print() {
	fmt.Printf("== %s  seed=%d seconds=%g trace=%d  ops attempted=%d ok=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.OK, r.Failed)
	printMetrics("  ", r.Metrics)
	if len(r.Info) > 0 {
		fmt.Println("  -- informational (not gated)")
		printMetrics("  ", r.Info)
	}
	if len(r.Layers) > 0 {
		fmt.Println("  -- layer self time per traced op")
		for _, l := range r.Layers {
			fmt.Printf("  %-16s %12.2f us  %6.1f%%  %s\n", l.Layer, l.SelfUS, 100*l.Share, l.Comment)
		}
	}
	if len(r.Programs) > 0 {
		fmt.Println("  -- per program: op ms, compile share, guest instrs, sends+calls+blockValues per 1000 instrs, guest Minstr/s")
		for _, p := range r.Programs {
			fmt.Printf("  %-12s %10.3f %6.3f %10d %8.1f %8.1f\n", p.Program, p.OpMS, p.CompileShare, p.Instrs, p.SendsPerK, p.MInstrPerS)
		}
	}
	for _, c := range r.Contrasts {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAILED CONTRAST"
		}
		fmt.Printf("  contrast %-34s %s %s\n", c.Name, verdict, c.Detail)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED OP: %s\n", f)
	}
}

func printMetrics(indent string, m metrics) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("%s%-44s %14.6g %s\n", indent, k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spec mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are fixed.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// newEnv describes the host; the checkout the driver runs in is not a
// git repository, so the commit is read from .git when it is there and
// is "unknown" otherwise.
func newEnv(root string, calibNS float64) envBlock {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return envBlock{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GOGC: gogc, CalibNS: calibNS, Commit: gitCommit(root),
	}
}

func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(data))
	}
	return h
}
