package main

import (
	"encoding/json"
	"fmt"
	"os"

	"baton/internal/obs"
	"baton/internal/p2p"
)

// obsDump is the schema of the -metricsout file: the full metrics-registry
// snapshot (cluster totals plus the per-peer breakdown), the retained
// structural-op journal, and the hop chains of the most recent sampled
// requests. One file per run, written after the workload and any audits.
type obsDump struct {
	Metrics obs.ClusterMetrics `json:"metrics"`
	Events  []obs.Event        `json:"events"`
	Traces  [][]obs.Hop        `json:"traces"`
}

// writeObsDump snapshots the cluster's flight recorder into path as JSON.
// An empty path means -metricsout was not given and nothing is written.
func writeObsDump(c *p2p.Cluster, path string) error {
	if path == "" {
		return nil
	}
	dump := obsDump{
		Metrics: c.Metrics(),
		Events:  c.Events(),
		Traces:  c.Traces(),
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("flight-recorder dump written to %s (%d peers, %d journal events, %d traces)\n",
		path, len(dump.Metrics.Peers), len(dump.Events), len(dump.Traces))
	return nil
}
