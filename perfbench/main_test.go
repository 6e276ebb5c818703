package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []metric
		specs  []metricSpec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.specs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.listed), len(c.specs))
		}
		for i, s := range c.specs {
			if c.listed[i].Name != s.name || c.listed[i].Unit != s.unit {
				t.Errorf("metric %d: BENCHMARK.json has %+v, benchmark prints %s in %s", i, c.listed[i], s.name, s.unit)
			}
		}
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
}

func TestGoldenSection(t *testing.T) {
	golden := "Headline: x\n\nTable A\n=======\nrow\n\nTable B\n=======\nrow b\n\n"
	got, err := goldenSection(golden, "Table B")
	if err != nil || got != "Table B\n=======\nrow b\n\n" {
		t.Errorf("section = %q, %v", got, err)
	}
	if _, err := goldenSection(golden, "Table C"); err == nil {
		t.Error("missing table not reported")
	}
}
