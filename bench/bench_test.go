package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the driver's description of this benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryMatchesBenchmarkJSON holds BENCHMARK.json's lists to the
// program's own registry, in order, field by field.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
	for name, on := range exactCounts {
		if _, ok := findMetric(name); !ok {
			t.Errorf("exact-count metric %s is not in the registry", name)
		}
		if len(on) == 0 {
			t.Errorf("exact-count metric %s is held to equality on no workload", name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload at the tiny size, untraced and traced,
// and checks what the driver would read: every registered metric exactly
// once with its unit, well-formed names, nothing failed, and a trace
// whose every span names an existing parent.
func TestSmoke(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q unit %q: malformed", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("metric %q registered twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why of %d characters", w.Name, len(w.Why))
		}
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			rep, err := runWorkload(w.Name, tinySizes, defaultSeed, 0.2, trace, dir, false)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Reasons)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d registered", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if v.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, m.Name, v.Value)
				}
			}
			if trace {
				checkTrace(t, filepath.Join(dir, "out", "trace-"+w.Name+".json"))
			}
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	ids := make(map[uint64]bool, len(f.Spans))
	for _, s := range f.Spans {
		ids[s.ID] = true
	}
	for _, s := range f.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) names parent %d, which does not exist", path, s.ID, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the spread measure the driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
