package main

import (
	"encoding/json"
	"os"
	"testing"
)

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
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

type layerMap struct {
	Dropped []struct {
		Workload string `json:"workload"`
		Reason   string `json:"reason"`
	} `json:"dropped"`
	Map []struct {
		Metric string   `json:"metric"`
		Moves  string   `json:"moves"`
		Via    string   `json:"via"`
		On     []string `json:"on"`
		FlatOn []string `json:"flat_on"`
	} `json:"map"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json, the metrics this
// program prints and the workloads it runs in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bf.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
}

// TestLayerMapNamesRealMetrics requires every per-layer metric of
// BENCHMARK.json to say which end-to-end metric it should move and on
// which workloads, naming only metrics and workloads that exist.
func TestLayerMapNamesRealMetrics(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var lm layerMap
	readJSON(t, "layers.json", &lm)

	e2e := map[string]bool{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
	}
	layer := map[string]bool{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = true
	}
	listed := map[string]bool{}
	for _, w := range bf.Workloads {
		listed[w.Name] = true
	}
	dropped := map[string]bool{}
	for _, d := range lm.Dropped {
		if _, ok := findWorkload(d.Workload); !ok || listed[d.Workload] || d.Reason == "" {
			t.Errorf("dropped workload %q must be runnable, unlisted and have a reason", d.Workload)
		}
		dropped[d.Workload] = true
	}

	mapped := map[string]bool{}
	for _, e := range lm.Map {
		if mapped[e.Metric] {
			t.Errorf("%s is mapped twice", e.Metric)
		}
		mapped[e.Metric] = true
		if !layer[e.Metric] {
			t.Errorf("layers.json maps %s, which is not a per-layer metric of BENCHMARK.json", e.Metric)
		}
		if !e2e[e.Moves] {
			t.Errorf("%s moves %q, which is not an end-to-end metric", e.Metric, e.Moves)
		}
		if e.Via != "" && !layer[e.Via] {
			t.Errorf("%s moves via %q, which is not a per-layer metric", e.Metric, e.Via)
		}
		if len(e.On)+len(e.FlatOn) == 0 {
			t.Errorf("%s names no workload", e.Metric)
		}
		for _, w := range append(append([]string(nil), e.On...), e.FlatOn...) {
			if !listed[w] && !dropped[w] {
				t.Errorf("%s names workload %q, which is neither listed nor recorded as dropped", e.Metric, w)
			}
		}
	}
	for name := range layer {
		if !mapped[name] {
			t.Errorf("per-layer metric %s has no entry in layers.json", name)
		}
	}
}
