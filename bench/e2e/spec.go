package e2e

import (
	"encoding/json"
	"fmt"
	"os"
)

// Spec is BENCHMARK.json: the workloads, metrics and bounds later issues
// cite by name.
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []SpecWhy    `json:"workloads"`
	EndToEnd   []SpecMetric `json:"end_to_end"`
	PerLayer   []SpecMetric `json:"per_layer"`
}

// SpecWhy is one workload and the reason it exists.
type SpecWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is one metric's definition; Bound is the share of the
// parent's median an end-to-end metric may worsen by.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
