// Command bench is the repository's one benchmark: four workloads driven
// through the public surface of the flash package (and, layer by layer,
// the exported constructors of its internal modules), each verified
// against an in-process reference before a number is reported.
//
//	bash bench/run.sh                      all workloads, end-to-end metrics
//	bash bench/run.sh --trace 1            all workloads, per-layer metrics + span files
//	bash bench/run.sh --workload epoch-flap --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -selfcheck -runs 10  two sets of runs, compared against the bounds
//	bash bench/run.sh -compare old.json new.json
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}; everything else goes to standard
// error. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

func benchDir() string {
	if d := os.Getenv("FLASHBENCH_DIR"); d != "" {
		return d
	}
	if _, err := os.Stat("golden.json"); err == nil {
		return "."
	}
	return "bench"
}

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all, as child processes)")
		seed       = flag.Int64("seed", defaultSeed, "input seed; golden.json applies to the default")
		seconds    = flag.Float64("seconds", runSeconds, "how long the timed phases of one run measure")
		trace      = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics, tracing off")
		runs       = flag.Int("runs", 1, "runs per workload (seed, seed+1, ...) in all-workloads and -selfcheck mode")
		selfcheck  = flag.Bool("selfcheck", false, "run the whole set twice and hold the two to the benchmark's bounds")
		compare    = flag.Bool("compare", false, "compare result files: -compare old.json[,old2.json] new.json[,new2.json]")
		out        = flag.String("out", "", "result file (default bench/out/result-<unix time>.json)")
		reportPath = flag.String("report", "", "also write this run's full report here (used by the parent process)")
		updateGold = flag.Bool("update-golden", false, "record golden.json instead of checking it (default seed only)")
		describe   = flag.Bool("describe", false, "print BENCHMARK.json as the program's registry defines it")
	)
	flag.Parse()
	dir := benchDir()
	var err error
	switch {
	case *describe:
		err = printBenchmarkJSON(os.Stdout)
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *selfcheck:
		err = selfCheck(dir, *seed, *seconds, *runs)
	case *workload != "":
		err = runOne(dir, *workload, *seed, *seconds, *trace != 0, *reportPath, *updateGold)
	default:
		err = runAll(dir, *seed, *seconds, *trace != 0, *runs, *out, *updateGold)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 10

// printBenchmarkJSON renders the registry in the driver's format; the
// repository's BENCHMARK.json is this output, and bench_test.go holds the
// two together.
func printBenchmarkJSON(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []gated  `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, named{wl.Name, wl.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, gated{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// driverLine is the one JSON object the driver reads.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry point: one workload, one process.
func runOne(dir, name string, seed int64, seconds float64, trace bool, reportPath string, updateGold bool) error {
	rep, err := runWorkload(name, fullSizes, seed, seconds, trace, dir, updateGold)
	if err != nil {
		return err
	}
	printReport(os.Stderr, rep)
	if reportPath != "" {
		data, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, data, 0o644); err != nil {
			return err
		}
	}
	line := driverLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]driverMetric{}}
	for name, v := range rep.Metrics {
		line.Metrics[name] = driverMetric{Value: v.Value, Unit: v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, rep.Failed, rep.Attempted)
	}
	return nil
}

func printReport(w *os.File, rep *report) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g trace=%v  attempted=%d failed=%d  (%s, nproc=%s, %s)\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Attempted, rep.Failed,
		rep.Env["go"], rep.Env["nproc"], rep.Env["network"])
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-30s %16s %-6s %8s %16s %16s\n", "metric", "value", "unit", "n", "q1", "q3")
	for _, name := range names {
		v := rep.Metrics[name]
		fmt.Fprintf(w, "%-30s %16.6g %-6s %8d %16.6g %16.6g\n", name, v.Value, v.Unit, v.N, v.Q1, v.Q3)
	}
	for _, reason := range rep.Reasons {
		fmt.Fprintln(w, "FAILED:", reason)
	}
}

// resultFile is the machine-readable output of an all-workloads run.
type resultFile struct {
	Env  map[string]string `json:"env"`
	Runs []*report         `json:"runs"`
}

// child runs one workload in a process of its own, so that peak memory
// and allocator state are that workload's alone, and reads its report.
func child(dir, name string, seed int64, seconds float64, trace bool, updateGold bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "out", fmt.Sprintf("report-%d.json", os.Getpid()))
	defer os.Remove(path)
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", t, "--report", path}
	if updateGold {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "FLASHBENCH_DIR="+dir)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to exit
	data, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// runSet runs every workload n times (seeds seed, seed+1, ...).
func runSet(dir string, seed int64, seconds float64, trace bool, n int, updateGold bool) ([]*report, error) {
	var reps []*report
	for _, w := range workloads {
		for i := 0; i < n; i++ {
			rep, err := child(dir, w.Name, seed+int64(i), seconds, trace, updateGold)
			if err != nil {
				return reps, err
			}
			reps = append(reps, rep)
		}
	}
	return reps, nil
}

func runAll(dir string, seed int64, seconds float64, trace bool, n int, out string, updateGold bool) error {
	reps, err := runSet(dir, seed, seconds, trace, n, updateGold)
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(dir, "out", fmt.Sprintf("result-%d.json", time.Now().Unix()))
	}
	data, err := json.MarshalIndent(resultFile{Env: environment(), Runs: reps}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	printSummary(os.Stdout, reps, trace)
	fmt.Printf("result file: %s\n", out)
	for _, rep := range reps {
		if !rep.Correct {
			return fmt.Errorf("%s seed %d: %d of %d operations failed", rep.Workload, rep.Seed, rep.Failed, rep.Attempted)
		}
	}
	return nil
}
