package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatches keeps ../BENCHMARK.json and the metric tables
// the binary prints from in step: same names, same order, same units.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		file  []metric
		table []string
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.file) != len(c.table) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the binary %d", c.kind, len(c.file), len(c.table))
		}
		for i, m := range c.file {
			if m.Name != c.table[i] || m.Unit != metricUnits[m.Name] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), binary %s (%s)",
					c.kind, i, m.Name, m.Unit, c.table[i], metricUnits[c.table[i]])
			}
		}
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary %d", len(doc.Workloads), len(workloads))
	}
}
