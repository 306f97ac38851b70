package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/radio"
	"repro/internal/service"
	"repro/internal/topo"
)

// kind is the path a workload takes into the program.
type kind int

const (
	// kindLibrary calls field.New and Runtime.RunEpoch in a child process
	// of the benchmark: no HTTP, no daemon.
	kindLibrary kind = iota
	// kindField submits a "field" job to one mhpolld.
	kindField
	// kindDist submits a "dist_field" job to a coordinator mhpolld that
	// shards it across two worker mhpollds.
	kindDist
)

// workload is one named input set. The deployment geometry is pinned
// per workload (geoSeed): on this code an epoch's cost swings by a
// factor of three with the Voronoi cell sizes of a random deployment,
// which would swamp any code change. The run seed drives everything
// stochastic on that deployment: fault victims, shadowing tables,
// traffic and packet-loss draws.
type workload struct {
	name string
	why  string
	kind kind

	sensors int
	heads   int
	side    float64
	geoSeed int64
	// epochs per job, including the cold epoch 0 that setup_s covers.
	epochs int

	faultRate     float64
	batteryJoules float64
	// shadowSigmaDB shifts the radio environment every epoch; only the
	// library path can ask for it (FieldSpec has no shadow setting).
	shadowSigmaDB float64
	// replanAll: at least 90% of clusters x epochs must re-plan, so the
	// planner is really exercised. Otherwise no cluster may re-plan.
	replanAll bool
	// twin names the workload whose summary must be byte-identical to
	// this one's: the same FieldSpec through the other engine.
	twin string
}

// workloads is the benchmark's workload list, in default run order.
var workloads = []workload{
	{
		name:          "field-shadow-3k",
		why:           "library path; the only workload that runs radio.Medium.Refresh (shadow shift every epoch) and re-plans every cluster every epoch",
		kind:          kindLibrary,
		sensors:       3000,
		heads:         12,
		side:          1100,
		geoSeed:       4242,
		epochs:        9,
		shadowSigmaDB: 3,
		replanAll:     true,
	},
	{
		name:          "dist-churn-5k",
		why:           "user path over HTTP on 3 processes; a relay dies in every cluster every epoch, so re-planning dominates RunShardEpoch",
		kind:          kindDist,
		sensors:       5000,
		heads:         16,
		side:          1414,
		geoSeed:       3,
		epochs:        9,
		faultRate:     1,
		batteryJoules: 20,
		replanAll:     true,
		twin:          "field-churn-5k",
	},
	{
		name:          "field-churn-5k",
		why:           "same FieldSpec as dist-churn-5k as a single-process field job: RunEpoch plus checkpoint instead of shard and merge",
		kind:          kindField,
		sensors:       5000,
		heads:         16,
		side:          1414,
		geoSeed:       3,
		epochs:        9,
		faultRate:     1,
		batteryJoules: 20,
		replanAll:     true,
		twin:          "dist-churn-5k",
	},
	{
		name:    "dist-quiet-128",
		why:     "128 small clusters, no churn: after epoch 0 every plan is a cache hit, so the planner is bypassed while the coordinator merges 128 results and checkpoints a growing summary each epoch",
		kind:    kindDist,
		sensors: 6000,
		heads:   128,
		side:    2400,
		geoSeed: 1,
		epochs:  60,
	},
}

// findWorkload resolves a workload name.
func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// processes is how many mhpolld daemons a round of w runs on (0 for the
// library path, which runs in a child of the benchmark).
func (w *workload) processes() int {
	switch w.kind {
	case kindField:
		return 1
	case kindDist:
		return 3
	}
	return 0
}

// Seed-derivation salts: each stochastic input gets its own stream.
const (
	saltParams = 0x9a7a
	saltChurn  = 0xc4a2
)

// derive maps the run seed to a positive, non-zero input seed.
func derive(seed int64, salt uint64) int64 {
	return int64(hashMix(uint64(seed), salt)>>1) | 1
}

// fieldSpec is the job-API description of w's field under the run seed.
func (w *workload) fieldSpec(seed int64) service.FieldSpec {
	return service.FieldSpec{
		Seed:              w.geoSeed,
		Side:              w.side,
		Heads:             w.heads,
		Sensors:           w.sensors,
		SensorRange:       40,
		InterferenceRange: 80,
		BatteryJoules:     w.batteryJoules,
		Epochs:            w.epochs,
		FaultRate:         w.faultRate,
		ChurnSeed:         derive(seed, saltChurn),
		Params: &service.ParamsSpec{
			RateBps:    15,
			CycleMS:    10000,
			UseSectors: true,
			Seed:       derive(seed, saltParams),
		},
	}
}

// jobSpec is the POST /v1/jobs body for one round of an HTTP workload.
func (w *workload) jobSpec(seed int64, workers []string) service.Spec {
	fs := w.fieldSpec(seed)
	if w.kind == kindDist {
		return service.Spec{Type: service.TypeDist, Dist: &service.DistSpec{Field: fs, Workers: workers}}
	}
	return service.Spec{Type: service.TypeField, Workers: fieldWorkers, Field: &fs}
}

// fieldWorkers is the shard parallelism inside a single-process field
// run: one per CPU of the two-CPU reference host.
const fieldWorkers = 2

// build materializes w's deployment and runtime config under the run
// seed — what the program builds from the same inputs. The library
// workload mirrors BenchmarkFieldEpochLarge: log-distance propagation,
// whose shadowing hook the shadow churn needs.
func (w *workload) build(seed int64) (*topo.Field, field.Config, error) {
	if w.kind != kindLibrary {
		fs := w.fieldSpec(seed)
		return fs.Build()
	}
	tc := topo.DefaultConfig(0, w.geoSeed)
	tc.Prop = radio.NewLogDistance(3.5, 1)
	tc.SensorRange = 40
	tc.HeadRange = w.side
	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.UseSectors = true
	p.Seed = derive(seed, saltParams)
	cfg := field.Config{
		Topo:              tc,
		Params:            p,
		InterferenceRange: 80,
		EpochCycles:       1,
		Epochs:            w.epochs,
		Churn: field.Churn{
			FaultRate:     w.faultRate,
			ShadowSigmaDB: w.shadowSigmaDB,
			ShadowEvery:   1,
			Seed:          derive(seed, saltChurn),
		},
	}
	return topo.BuildField(w.geoSeed, w.side, w.heads, w.sensors), cfg, nil
}

// The field runtime derives per-epoch runner seeds (Runtime.epochSeed in
// internal/field/field.go) and shadowing tables (saltShadow in
// internal/field/churn.go) from its unexported hashMix with these salts.
// The replay repeats both derivations from copies; the replay's
// per-cluster rows are checked against the program's, so a drift between
// the copies and the originals fails the traced run and the smoke test.
const (
	saltEpochSeed = 0x5eed
	saltShadow    = 0x5ad00
)

// hashMix is a copy of the field runtime's splitmix64-style fold.
func hashMix(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
