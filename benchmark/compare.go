package main

import (
	"fmt"
	"os"
)

// verdicts of one -compare row.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
)

// compareRow judges one end-to-end metric of one workload: b against
// the base a. worse is the share of a by which b is worse (negative
// when better). A row whose slices spread wider than the bound inside
// either run cannot show a difference of the bound's size, so it is
// unresolved rather than ok; a breach is a breach either way.
func compareRow(m metricSpec, a, b, spreadA, spreadB float64) (worse float64, verdict string) {
	if a != 0 {
		worse = (b - a) / a
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > m.Bound:
		return worse, verdictBreach
	case max(spreadA, spreadB) > m.Bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

func findRun(d *document, workload string, trace int) *runDoc {
	for _, r := range d.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the process's exit code: 1 on any breach.
func compareFiles(s *spec, pathA, pathB string) int {
	a, err := readDocument(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readDocument(pathB)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("base A = %s, B = %s; ratio is B/A; worse is the share of A by which B is worse\n", pathA, pathB)
	fmt.Printf("%-12s %-16s %14s %14s %8s %8s %6s %8s  %s\n", "workload", "metric", "A", "B", "B/A", "worse", "bound", "spread", "verdict")
	code := 0
	for _, w := range s.Workloads {
		ra, rb := findRun(a, w.Name, 0), findRun(b, w.Name, 0)
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range s.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			sa, sb := ra.Info[m.Name+".spread"].Value, rb.Info[m.Name+".spread"].Value
			worse, verdict := compareRow(m, va, vb, sa, sb)
			ratio := 0.0
			if va != 0 {
				ratio = vb / va
			}
			fmt.Printf("%-12s %-16s %14.6g %14.6g %8.3f %+8.3f %6.2f %8.3f  %s\n",
				w.Name, m.Name, va, vb, ratio, worse, m.Bound, max(sa, sb), verdict)
			if verdict == verdictBreach {
				code = 1
			}
		}
		if rb.Failed > 0 || ra.Failed > 0 {
			fmt.Printf("%-12s ops failed: A %d of %d, B %d of %d\n", w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			code = 1
		}
	}
	// The exact counts of the traced pass compare two versions of one
	// program; between two runs of one commit they must not differ at all.
	for _, w := range s.Workloads {
		ra, rb := findRun(a, w.Name, 1), findRun(b, w.Name, 1)
		if ra == nil || rb == nil {
			continue
		}
		same := true
		for _, k := range sortedKeys(ra.Counts) {
			if ra.Counts[k] != rb.Counts[k] {
				fmt.Printf("%-12s count %-34s A %d  B %d\n", w.Name, k, ra.Counts[k], rb.Counts[k])
				same = false
			}
		}
		if same {
			fmt.Printf("%-12s exact counts identical (%d counters)\n", w.Name, len(ra.Counts))
		}
	}
	if code != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: regression beyond bound")
	}
	return code
}
