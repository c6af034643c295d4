package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// Workload is one traffic mix with the topology it runs against.  The
// frozen offered rate and the per-class latency limits live here, beside the
// reasons for the workload, so later runs compare at the same load.
type Workload struct {
	Name       string             `json:"-"`
	Why        string             `json:"why"`
	Topology   string             `json:"topology"` // engine | corpus | router
	Datasets   []string           `json:"datasets"` // dataset kinds served
	Scale      int                `json:"scale"`
	Shards     int                `json:"shards"`
	ServerArgs string             `json:"serverArgs"` // documentation only; proc.go builds the argv
	Mix        string             `json:"mix"`
	Rate       float64            `json:"rateOpsPerS"`
	IngestEvry float64            `json:"ingestEveryS,omitempty"` // 0: no ingests
	LimitsMS   map[string]float64 `json:"limitsMs"`
}

//go:embed workloads.json
var workloadsJSON []byte

// loadWorkloads parses the embedded workload table.
func loadWorkloads() (map[string]*Workload, error) {
	var ws map[string]*Workload
	if err := json.Unmarshal(workloadsJSON, &ws); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range ws {
		w.Name = name
		if w.Rate <= 0 || w.Scale < 1 || w.Shards < 1 || len(w.Datasets) == 0 {
			return nil, fmt.Errorf("workloads.json: workload %q is incomplete", name)
		}
	}
	return ws, nil
}

func workloadNames(ws map[string]*Workload) []string {
	names := make([]string, 0, len(ws))
	for n := range ws {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// requestDataset maps a served dataset kind to the ?dataset= value the
// workload's server knows it by.
func (w *Workload) requestDataset(kind string) string {
	if w.Topology == "router" {
		return "cluster"
	}
	return kind
}
