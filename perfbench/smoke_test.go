package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile holds the fields of the repository's BENCHMARK.json the
// smoke test cross-checks against this program.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program's metric
// catalog in step: same workloads, same metric names, same units.
func TestBenchmarkFileMatches(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined here", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program defines %d", names, len(workloads))
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run passes its output checks, reports every named metric
// with its unit, and writes a results file that parses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, traced), func(t *testing.T) {
				var stdout bytes.Buffer
				res, err := run(options{workload: w.name, seed: 3, seconds: 0.4, trace: traced, out: out, quick: true}, &stdout)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run failed its checks: %+v\n%s", res, stdout.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !bytes.Contains(stdout.Bytes(), []byte(d.name)) {
						t.Errorf("metric %s is not printed", d.name)
					}
				}
				// The last line of stdout is the result, as JSON.
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var last result
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				blob, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("result-%s-trace%d.json", w.name, boolInt(traced))))
				if err != nil {
					t.Fatal(err)
				}
				var rep report
				if err := json.Unmarshal(blob, &rep); err != nil {
					t.Fatalf("results file does not parse: %v", err)
				}
				if rep.Env.Seed != 3 || rep.Env.Batch != w.batch || rep.Env.Parallelism != batchParallelism || rep.Env.GoVersion == "" {
					t.Errorf("results file env = %+v", rep.Env)
				}
				if traced {
					if _, err := os.Stat(filepath.Join(out, "spans-"+w.name+".jsonl")); err != nil {
						t.Errorf("no span dump: %v", err)
					}
				}
			})
		}
	}
}
