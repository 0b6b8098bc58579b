package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the self-test compares
// with the metric lists this program emits.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
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

// selfTest is the benchmark's short mode. It checks that BENCHMARK.json
// declares exactly the workloads and metrics this program emits, runs
// every workload briefly untraced and traced asserting every declared
// metric comes out with its unit, and checks that a deliberately wrong
// reference digest makes a run fail instead of reporting a result. The
// population is built once and shared by the short runs.
func selfTest(workDir string) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		return fmt.Errorf("BENCHMARK.json declares %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			return fmt.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			return fmt.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}

	dir := filepath.Join(workDir, fmt.Sprintf("selftest-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	pop, err := buildPopulation(filepath.Join(dir, "prepared"), newTimings())
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 1, trace: traced, rounds: 1, workDir: dir}
			out, err := runWorkload(cfg, pop)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, traced, err)
			}
			if err := checkResult(out); err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, traced, err)
			}
		}
	}
	for _, name := range []string{"retrieve-cold", "publish-durable"} {
		w, _ := findWorkload(name)
		cfg := config{workload: w, seed: 7, seconds: 1, rounds: 1, workDir: dir, corruptRef: true}
		if _, err := runWorkload(cfg, pop); !errors.Is(err, errWrongBytes) {
			return fmt.Errorf("%s with a wrong reference digest: got %v, want a wrong-bytes failure", name, err)
		}
	}
	return nil
}

// checkResult asserts the result line carries exactly the declared
// metrics, each finite and with its unit, and no failed op.
func checkResult(out *output) error {
	r := out.result
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		return fmt.Errorf("result correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(out.metrics) {
		return fmt.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(out.metrics))
	}
	for _, d := range out.metrics {
		v, ok := r.Metrics[d.name]
		if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s: got %+v (present %v), want a finite value in %s", d.name, v, ok, d.unit)
		}
	}
	return nil
}
