package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// series collects one metric's values over the runs of one workload.
type series map[string]map[string][]float64 // workload → metric → values in run order

func collect(reps []*report) series {
	s := series{}
	for _, rep := range reps {
		if s[rep.Workload] == nil {
			s[rep.Workload] = map[string][]float64{}
		}
		for name, v := range rep.Metrics {
			s[rep.Workload][name] = append(s[rep.Workload][name], v.Value)
		}
	}
	return s
}

func metricList(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printSummary prints, per workload, every metric by name with its unit,
// the median over runs, the quartiles and the number of runs; for a
// single run the quartiles are those of the run's own sample.
func printSummary(w io.Writer, reps []*report, trace bool) {
	s := collect(reps)
	single := make(map[string]*report) // workload → its report, when it ran once
	for _, rep := range reps {
		single[rep.Workload] = rep
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n== %s\n%-30s %-6s %16s %16s %16s %6s\n", wl.Name, "metric", "unit", "median", "q1", "q3", "n")
		for _, m := range metricList(trace) {
			xs := s[wl.Name][m.Name]
			q1, q2, q3 := quartiles(xs)
			n := len(xs)
			if n == 1 {
				v := single[wl.Name].Metrics[m.Name]
				q1, q2, q3, n = v.Q1, v.Value, v.Q3, v.N
			}
			fmt.Fprintf(w, "%-30s %-6s %16.6g %16.6g %16.6g %6d\n", m.Name, m.Unit, q2, q1, q3, n)
		}
	}
}

// worseBy is how much worse b is than a as a share of a (negative when
// b is better), given the metric's direction.
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck is the driver's acceptance test run by the benchmark on
// itself: two sets of n runs of the same code (seeds seed..seed+n-1 on
// both sides). It fails when an end-to-end metric's second median is
// worse or better than the first by more than the metric's bound, when
// a run-to-run spread (inter-quartile distance over median, setup_s
// excepted) exceeds the bound, or when a count metric differs at all
// between two traced runs of the default seed.
func selfCheck(dir string, seed int64, seconds float64, n int) error {
	if n < 2 {
		n = 5
	}
	var sets [2]series
	var traced [2]series
	for side := 0; side < 2; side++ {
		reps, err := runSet(dir, seed, seconds, false, n, false)
		if err != nil {
			return err
		}
		sets[side] = collect(reps)
		treps, err := runSet(dir, seed, seconds, true, 1, false)
		if err != nil {
			return err
		}
		traced[side] = collect(treps)
	}
	bad := 0
	fmt.Printf("%-12s %-20s %14s %14s %8s %8s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][wl.Name][m.Name], sets[1][wl.Name][m.Name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			diff := worseBy(m, ma, mb)
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case diff > m.Bound || -diff > m.Bound:
				verdict = "FAIL medians differ by more than the bound"
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "FAIL spread above the bound"
			case m.Name != "setup_s" && (sa > m.Bound/3 || sb > m.Bound/3):
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				bad++
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*diff, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	fmt.Println()
	for name, on := range exactCounts {
		for _, wl := range on {
			a, b := traced[0][wl][name], traced[1][wl][name]
			verdict := "equal"
			if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
				verdict = "FAIL count differs"
				bad++
			}
			fmt.Printf("%-12s %-26s %v %v  %s\n", wl, name, a, b, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d checks failed", bad)
	}
	fmt.Println("selfcheck: every end-to-end metric within its bound, every count equal")
	return nil
}

func loadRuns(arg string) ([]*report, error) {
	var reps []*report
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, f.Runs...)
	}
	return reps, nil
}

// compareFiles applies the measurement guide's rule to two sides of
// result files (each side one or more files, comma-separated; run i of
// the old side pairs with run i of the new side, so record the two sides
// alternately). A metric improved only when the new side wins at least
// nine tenths of the pairs and the medians differ by more than the old
// side's inter-quartile distance. Everything else is unchanged,
// regressed (median worse by more than the bound) or unresolved (the old
// side's own spread is wider than the bound). One row per workload and
// metric; every ratio is printed with its base.
func compareFiles(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two arguments: old.json[,more] new.json[,more]")
	}
	oldReps, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	newReps, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	olds, news := collect(oldReps), collect(newReps)
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %6s %9s  %s\n", "workload", "metric", "old median", "new median", "better", "wins", "old iqr", "verdict")
	regressed := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := olds[wl.Name][m.Name], news[wl.Name][m.Name]
			pairs := len(a)
			if len(b) < pairs {
				pairs = len(b)
			}
			if pairs < 2 {
				fmt.Fprintf(w, "%-12s %-20s needs at least two runs per side, has %d and %d\n", wl.Name, m.Name, len(a), len(b))
				continue
			}
			wins := 0
			for i := 0; i < pairs; i++ {
				if worseBy(m, a[i], b[i]) < 0 {
					wins++
				}
			}
			q1, ma, q3 := quartiles(a)
			_, mb, _ := quartiles(b)
			diff := worseBy(m, ma, mb)
			gap := mb - ma
			if gap < 0 {
				gap = -gap
			}
			verdict := "unchanged"
			switch {
			case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && gap > q3-q1:
				verdict = "improved"
			case diff > m.Bound:
				verdict = "regressed"
				regressed++
			case ma != 0 && (q3-q1)/ma > m.Bound:
				verdict = "unresolved (old spread above the bound)"
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+8.1f%% %3d/%-2d %8.1f%%  %s (base %.6g %s)\n",
				wl.Name, m.Name, ma, mb, -100*diff, wins, pairs, 100*ratio(q3-q1, ma), verdict, ma, m.Unit)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("compare: %d metrics regressed beyond their bounds", regressed)
	}
	return nil
}
