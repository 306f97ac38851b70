// Command mhpoll simulates one polling cluster and prints a cycle-by-cycle
// summary: duty length, ack/data slots, retries, per-sensor active time
// and projected lifetime.
//
// Example:
//
//	mhpoll -nodes 30 -rate 60 -cycles 10 -sectors
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mhpoll: ")

	var (
		nodes     = flag.Int("nodes", 30, "number of sensors in the cluster")
		rate      = flag.Float64("rate", 20, "per-sensor data rate in bytes/second")
		cycleSec  = flag.Float64("cycle", 4, "cycle length in seconds")
		cycles    = flag.Int("cycles", 5, "number of duty cycles to simulate")
		m         = flag.Int("m", 3, "compatibility degree M, 1–4")
		loss      = flag.Float64("loss", 0.02, "per-transmission loss probability")
		seed      = flag.Int64("seed", 1, "deployment and workload seed")
		sectors   = flag.Bool("sectors", false, "divide the cluster into sectors")
		battery   = flag.Float64("battery", 100, "sensor battery capacity in joules")
		tracePath = flag.String("trace", "", "write a slot-level CSV trace of the data phases to this file")
		metrics   = flag.String("metrics", "", "write a metrics snapshot to this file (.prom/.txt = Prometheus text, else JSON)")
	)
	flag.Parse()

	c, err := topo.Build(topo.DefaultConfig(*nodes, *seed))
	if err != nil {
		log.Fatal(err)
	}
	p := cluster.DefaultParams()
	p.RateBps = *rate
	p.Cycle = time.Duration(*cycleSec * float64(time.Second))
	p.M = *m
	p.LossProb = *loss
	p.Seed = *seed
	p.UseSectors = *sectors

	r, err := cluster.NewRunner(c, p)
	if err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" || *metrics != "" {
		r.Trace = &trace.Log{}
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		cluster.RegisterMetrics(reg)
		trace.RegisterMetrics(reg)
		r.Obs = reg.Observer()
	}

	fmt.Printf("cluster: %d sensors in %.0fx%.0f m, max hop count %d, routing delta %d\n",
		c.Sensors(), c.Cfg.Side, c.Cfg.Side, c.MaxLevel(), r.Plan.Delta)
	if r.Part != nil {
		fmt.Printf("sectors: %d\n", r.Part.NSectors())
	}

	for i := 0; i < *cycles; i++ {
		res, err := r.RunCycle()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cycle %2d: offered %3d delivered %3d | ack %3d + data %4d slots | duty %8v | active %5.1f%% | retries %d\n",
			i, res.Offered, res.Delivered, res.AckSlots, res.DataSlots,
			res.Duty.Round(time.Microsecond), res.ActiveFraction*100, res.Retries)
		if !res.Fits {
			fmt.Fprintln(os.Stderr, "  warning: duty exceeded the cycle; the cluster is over capacity")
		}
	}

	s, err := r.Run(1)
	if err != nil {
		log.Fatal(err)
	}
	lt := s.Lifetime(energy.DefaultModel(), *battery)
	fmt.Printf("projected first-sensor-death lifetime at %.0f J: %v\n",
		*battery, lt.Round(time.Minute))
	fmt.Printf("interference groups tested by the head: %d\n", s.OracleTests)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := r.Trace.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s\n", r.Trace.Len(), *tracePath)
	}

	if reg != nil {
		// Bridge the slot-level trace into the same registry so the
		// snapshot carries event counts and delivery latencies alongside
		// the cycle series.
		r.Trace.Summarize(reg.Observer())
		f, err := os.Create(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		switch filepath.Ext(*metrics) {
		case ".prom", ".txt":
			err = reg.WritePrometheus(f)
		default:
			err = reg.WriteJSON(f)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metrics)
	}
}
