package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric definitions are kept there once, and the program reports
// exactly those names with those units.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json and checks that it names exactly the
// workloads this program runs.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var declared, have []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(declared)
	sort.Strings(have)
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		return nil, fmt.Errorf("%s declares workloads %v, the benchmark runs %v", path, declared, have)
	}
	return &s, nil
}

// metricValue is one reported metric with the samples behind it.
type metricValue struct {
	// Value is nil when the samples cannot support the metric (a tail
	// needs 20 pooled samples).
	Value   *float64 `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples"`
	// PerRound holds each round's value; Value is their median.
	PerRound []float64 `json:"per_round,omitempty"`
	// Percentile names the percentile a tail metric reports.
	Percentile float64 `json:"percentile,omitempty"`
	// Moves names, for a per-layer metric, the end-to-end metrics a
	// change in its layer should move on this workload.
	Moves []string `json:"moves,omitempty"`
}

// layerTarget says where a per-layer metric should show: the end-to-end
// metrics a change in its layer should move, and the workloads on which
// it should move them. BENCHMARK.json gives a per-layer metric only a
// name, unit and direction, so the map lives here; the tests check it
// against the declared metrics and workloads, and the traced report
// prints it with each value. An outcome rather than a cost moves none.
type layerTarget struct {
	moves     []string
	workloads []string
}

var layerTargets = func() map[string]layerTarget {
	var (
		jobs  = []string{"dist-churn-5k", "field-churn-5k", "dist-quiet-128"}
		dist  = []string{"dist-churn-5k", "dist-quiet-128"}
		churn = []string{"dist-churn-5k", "field-churn-5k"}
		all   = []string{"field-shadow-3k", "dist-churn-5k", "field-churn-5k", "dist-quiet-128"}

		quiet   = layerTarget{[]string{"epochs_per_s", "epoch_tail_s"}, []string{"dist-quiet-128"}}
		shards  = layerTarget{[]string{"epoch_p50_s"}, []string{"dist-churn-5k"}}
		planner = layerTarget{[]string{"epoch_p50_s", "cpu_s_per_epoch"}, []string{"field-shadow-3k", "dist-churn-5k", "field-churn-5k"}}
		epoch   = layerTarget{[]string{"epoch_p50_s", "cpu_s_per_epoch"}, all}
		shadow  = layerTarget{[]string{"epoch_p50_s"}, []string{"field-shadow-3k"}}
		setup   = layerTarget{[]string{"setup_s"}, jobs}
		open    = layerTarget{[]string{"setup_s"}, dist}
	)
	return map[string]layerTarget{
		"service.submit_ms":         setup,
		"service.queue_wait_ms":     setup,
		"service.checkpoint_ms":     quiet,
		"service.checkpoint_bytes":  quiet,
		"dist.build_s":              open,
		"dist.open_s":               open,
		"dist.run_shard_ms":         shards,
		"dist.barrier_ms":           shards,
		"dist.barrier_skew":         shards,
		"dist.merge_ms":             quiet,
		"dist.wire_bytes_per_epoch": quiet,
		"dist.wire_overhead_ms":     quiet,
		"dist.calls_retried":        {nil, dist},
		"dist.calls_failed":         {nil, dist},
		"field.build_s":             {[]string{"setup_s", "peak_rss_mb"}, all},
		"field.epoch_ms":            {[]string{"epoch_p50_s"}, all},
		"field.epoch_cpu_ms":        {[]string{"cpu_s_per_epoch"}, all},
		"topo.refresh_ms":           shadow,
		"radio.links_refreshed":     shadow,
		"topo.churn_ms":             {[]string{"epoch_p50_s"}, churn},
		"routing.plan_ms":           planner,
		"routing.plan_share":        planner,
		"routing.solves":            planner,
		"routing.augmenting_paths":  planner,
		"routing.cache_hit_ratio":   planner,
		"cluster.simulate_ms":       epoch,
		"cluster.simulate_share":    epoch,
		"cluster.delivered_ratio":   {nil, all},
		"core.oracle_tests":         epoch,
		"trace.overhead_s":          {nil, all},
	}
}()

// movesOn returns the end-to-end metrics t should move on workload name.
func (t layerTarget) movesOn(name string) []string {
	for _, w := range t.workloads {
		if w == name {
			return t.moves
		}
	}
	return nil
}

// withUnits attaches the declared units to computed metrics and checks
// that the program computed exactly the declared set.
func withUnits(defs []metricDef, got map[string]metricValue) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but not computed", d.Name)
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	if len(got) != len(defs) {
		for name := range got {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is computed but not declared", name)
			}
		}
	}
	return out, nil
}

// number wraps a finite value; NaN and infinities become nil.
func number(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}
