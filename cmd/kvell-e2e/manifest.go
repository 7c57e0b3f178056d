package main

import "encoding/json"

// manifest renders BENCHMARK.json from the tables in this package, so the
// file at the repository root cannot drift from the code: `kvell-e2e
// manifest` prints it and the smoke test compares it with the file.
func manifest() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{
		Command:    []string{"bash", "cmd/kvell-e2e/bench.sh"},
		Paths:      []string{"cmd/kvell-e2e"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, metricJSON{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, metricJSON{d.name, d.unit, d.better, nil})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	return append(out, '\n'), err
}
