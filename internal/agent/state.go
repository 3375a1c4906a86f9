// Distributed-state reporting: alongside network events, the paper's
// agents shipped collectd resource snapshots and dependency-watcher
// status to the analyzer service (§5.1, §6). These types are that
// side-channel: periodic StateUpdates carrying per-node resource samples
// and software-dependency health, serializable over the same TCP
// transport as events.

package agent

import (
	"time"

	"gretel/internal/cluster"
	"gretel/internal/metrics"
	"gretel/internal/trace"
)

// NodeState is the watcher/inventory view of one node at a point in time.
type NodeState struct {
	Name       string        `json:"name"`
	Service    trace.Service `json:"service"`
	Up         bool          `json:"up"`
	MemTotalMB float64       `json:"mem_total_mb"`
	Deps       []DepStatus   `json:"deps,omitempty"`
}

// MetricSample is one resource observation.
type MetricSample struct {
	Node   string    `json:"node"`
	Metric string    `json:"metric"`
	Time   time.Time `json:"time"`
	Value  float64   `json:"value"`
}

// StateUpdate is one periodic report from the monitoring layer.
type StateUpdate struct {
	Time    time.Time      `json:"time"`
	Nodes   []NodeState    `json:"nodes"`
	Samples []MetricSample `json:"samples,omitempty"`
}

// NodeStates snapshots the node inventory with the watcher view of each
// node's dependencies.
func NodeStates(f *cluster.Fabric) []NodeState {
	var out []NodeState
	for _, n := range f.Nodes() {
		ns := NodeState{
			Name:       n.Name,
			Service:    n.Service,
			Up:         n.Up,
			MemTotalMB: n.Base.MemTotalMB,
		}
		for _, d := range n.Dependencies() {
			ns.Deps = append(ns.Deps, DepStatus{Node: n.Name, Name: d.Name, Running: d.Running && n.Up})
		}
		out = append(out, ns)
	}
	return out
}

// CollectState gathers the current node inventory, dependency health and
// one resource sample per node/metric from a fabric — what the paper's
// per-node collectd + watcher agents reported each polling interval.
func CollectState(f *cluster.Fabric, at time.Time) StateUpdate {
	u := StateUpdate{Time: at, Nodes: NodeStates(f)}
	for _, n := range f.Nodes() {
		if n.Up {
			r := n.Sample()
			for _, mv := range []struct {
				name string
				v    float64
			}{
				{metrics.MetricCPU, r.CPUPercent},
				{metrics.MetricMemUsed, r.MemUsedMB},
				{metrics.MetricDiskFree, r.DiskFreeGB},
				{metrics.MetricNet, r.NetMbps},
				{metrics.MetricDiskIOPS, r.DiskIOPS},
			} {
				u.Samples = append(u.Samples, MetricSample{Node: n.Name, Metric: mv.name, Time: at, Value: mv.v})
			}
		}
	}
	return u
}
