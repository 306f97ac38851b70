// Command experiments regenerates the paper's evaluation figures and the
// repo's ablations, printing ASCII tables (and optional CSV).
//
//	experiments -fig 7a            # Fig. 7(a) percentage of active time
//	experiments -fig 7b            # Fig. 7(b) throughput vs. S-MAC+AODV
//	experiments -fig 7c            # Fig. 7(c) sector lifetime ratio
//	experiments -fig field         # churned multi-cluster field sweep
//	experiments -fig all -quick    # everything, cut-down sweeps
//	experiments -ablation m        # compatibility-degree ablation
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/stats"
)

// writeMetrics renders the registry to path: Prometheus text exposition
// for .prom/.txt files, JSON otherwise.
func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch filepath.Ext(path) {
	case ".prom", ".txt":
		err = reg.WritePrometheus(f)
	default:
		err = reg.WriteJSON(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		fig      = flag.String("fig", "", "figure to regenerate: 7a, 7b, 7c, capacity, decay, field or all")
		ablation = flag.String("ablation", "", "ablation to run: delta, m, delay, intercluster, interference, gap, order, energy, joint or all")
		quick    = flag.Bool("quick", false, "use cut-down sweeps")
		csvPath  = flag.String("csv", "", "also write results as CSV to this file")
		workers  = flag.Int("workers", 0, "sweep worker-pool size; 0 = all CPUs, 1 = sequential")
		metrics  = flag.String("metrics", "", "write a metrics snapshot to this file (.prom/.txt = Prometheus text, else JSON)")
	)
	flag.Parse()
	if *fig == "" && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}
	opts := exp.Options{Workers: *workers}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		cluster.RegisterMetrics(reg)
		field.RegisterMetrics(reg)
		opts.Obs = reg.Observer()
	}

	var csvRows [][]string
	var csvHeaders []string

	runFig := func(name string) {
		switch name {
		case "7a":
			cfg := exp.DefaultFig7a()
			if *quick {
				cfg = exp.QuickFig7a()
			}
			points, err := exp.Fig7a(opts, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Fig. 7(a): percentage of active time (rows: cluster size; '*' = over capacity)")
			fmt.Println(exp.RenderFig7a(points))
			csvHeaders = []string{"nodes", "rate_bps", "active_pct", "fits"}
			csvRows = csvRows[:0]
			for _, p := range points {
				csvRows = append(csvRows, []string{
					fmt.Sprint(p.Nodes), fmt.Sprint(p.RateBps),
					fmt.Sprintf("%.2f", p.ActivePct), fmt.Sprint(p.Fits),
				})
			}
		case "7b":
			cfg := exp.DefaultFig7b()
			if *quick {
				cfg = exp.QuickFig7b()
			}
			points, err := exp.Fig7b(opts, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Fig. 7(b): throughput at the sink (bytes/second)")
			fmt.Println(exp.RenderFig7b(points))
			csvHeaders = []string{"series", "offered_bps", "throughput_bps"}
			csvRows = csvRows[:0]
			for _, p := range points {
				csvRows = append(csvRows, []string{
					p.Series, fmt.Sprint(p.OfferedBps), fmt.Sprintf("%.1f", p.ThroughputBps),
				})
			}
		case "7c":
			cfg := exp.DefaultFig7c()
			if *quick {
				cfg = exp.QuickFig7c()
			}
			points, err := exp.Fig7c(opts, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Fig. 7(c): lifetime ratio, sectors vs. no sectors")
			fmt.Println(exp.RenderFig7c(points))
			csvHeaders = []string{"nodes", "lifetime_ratio"}
			csvRows = csvRows[:0]
			for _, p := range points {
				csvRows = append(csvRows, []string{fmt.Sprint(p.Nodes), fmt.Sprintf("%.3f", p.Ratio)})
			}
		case "decay":
			cfg := exp.DefaultDecay()
			if *quick {
				cfg.Nodes = []int{15}
				cfg.Seeds = []int64{1}
			}
			rows, err := exp.Decay(opts, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Network decay (longitudinal Fig. 7(c)): battery deaths with and without sectors")
			fmt.Println(exp.RenderDecay(rows))
		case "capacity":
			cfg := exp.DefaultCapacity()
			if *quick {
				cfg = exp.QuickCapacity()
			}
			rows, err := exp.Capacity(opts, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Capacity frontier: max lossless per-sensor rate by cluster size")
			fmt.Println(exp.RenderCapacity(rows))
			csvHeaders = []string{"nodes", "max_rate_bps", "total_bps"}
			csvRows = csvRows[:0]
			for _, r := range rows {
				csvRows = append(csvRows, []string{
					fmt.Sprint(r.Nodes), fmt.Sprintf("%.1f", r.MaxRateBps), fmt.Sprintf("%.1f", r.TotalBps),
				})
			}
		case "field":
			headers, rows, err := runFieldFig(opts, *quick)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Field sweep: field size x churn rate through the sharded runtime")
			fmt.Println(stats.Table(headers, rows))
			csvHeaders = headers
			csvRows = rows
		default:
			log.Fatalf("unknown figure %q", name)
		}
	}

	runAblation := func(name string) {
		switch name {
		case "delta":
			rows, err := exp.AblationDelta(opts, []int{15, 30, 45, 60}, 1)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: routing delta search (paper +1 ascent, bounded linear)")
			fmt.Println(exp.RenderDelta(rows))
		case "m":
			rows, err := exp.AblationM(opts, 25, []int{1, 2, 3, 4}, 1, 3)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: compatibility degree M")
			fmt.Println(exp.RenderM(rows))
		case "delay":
			rows, err := exp.AblationDelay(opts, []int{15, 30}, 1, 3)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: pipelined vs. delay-allowed scheduling (Theorem 2)")
			fmt.Println(exp.RenderDelay(rows))
		case "intercluster":
			rows, err := exp.AblationInterCluster([]int{4, 9, 16}, 12, 500*time.Millisecond, 1)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: inter-cluster interference removal (Section V-G)")
			fmt.Println(exp.RenderInterCluster(rows))
		case "interference":
			res, err := exp.AblationInterferenceModel(opts, 50, 20, 1)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: protocol (pairwise) model vs. accumulated-interference SINR")
			fmt.Println(stats.Table(
				[]string{"trials", "pairwise-built schedules that collide", "SINR-built schedules that collide"},
				[][]string{{
					fmt.Sprint(res.Trials),
					fmt.Sprint(res.PairwiseCollisions),
					fmt.Sprint(res.SINRCollisions),
				}},
			))
		case "ack":
			rows, err := exp.AblationAckCover(opts, []int{8, 12, 16, 20}, []int64{1, 2, 3})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: acknowledgment-collection cover (Section V-F), greedy vs. exact")
			fmt.Println(exp.RenderAck(rows))
		case "pcf":
			rows, err := exp.PCFComparison([]int{10, 20, 30, 50, 80}, []int64{1, 2, 3})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Baseline: single-hop polling (802.11 PCF / Bluetooth style) vs. multi-hop polling")
			fmt.Println(exp.RenderPCF(rows))
		case "joint":
			res, err := exp.AblationJointGap(60, 1)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: JMHRP decomposition (Section III-E) vs. exact joint optimum")
			fmt.Println(exp.RenderJointGap(res))
		case "gap":
			res, err := exp.AblationGreedyGap(200, 5, 1)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: on-line greedy vs. exact optimum (small random instances)")
			fmt.Println(exp.RenderGreedyGap(res))
		case "order":
			rows, err := exp.AblationOrder(opts, 30, 1, 3)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: greedy scan-order heuristics")
			fmt.Println(exp.RenderOrder(rows))
		case "energy":
			rows, err := exp.AblationEnergyModes(opts, 30, 1, 3, 100)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("Ablation: sleeping policies (early sleep, sectors, both)")
			fmt.Println(exp.RenderEnergyModes(rows))
		default:
			log.Fatalf("unknown ablation %q", name)
		}
	}

	if *fig != "" {
		figs := []string{*fig}
		if *fig == "all" {
			figs = []string{"7a", "7b", "7c"}
		}
		for _, f := range figs {
			runFig(f)
		}
	}
	if *ablation != "" {
		abls := []string{*ablation}
		if *ablation == "all" {
			abls = []string{"delta", "m", "delay", "intercluster", "interference", "gap", "order", "energy", "joint", "pcf", "ack"}
		}
		for _, a := range abls {
			runAblation(a)
		}
	}

	if *csvPath != "" && len(csvRows) > 0 {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := stats.WriteCSV(f, csvHeaders, csvRows); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d rows)\n", *csvPath, len(csvRows))
	}

	if reg != nil {
		if err := writeMetrics(reg, *metrics); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metrics)
	}
}
