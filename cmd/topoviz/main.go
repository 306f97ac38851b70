// Command topoviz renders a cluster deployment as an ASCII map: the head
// at the center, each sensor drawn as its hop level (or its sector letter
// with -sectors), plus a summary of levels, loads and sector structure.
//
//	topoviz -nodes 40 -seed 3 -sectors
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/routing"
	"repro/internal/sector"
	"repro/internal/topo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topoviz: ")
	var (
		nodes   = flag.Int("nodes", 30, "number of sensors")
		seed    = flag.Int64("seed", 1, "deployment seed")
		width   = flag.Int("width", 60, "map width in characters")
		sectors = flag.Bool("sectors", false, "color sensors by sector instead of hop level")
	)
	flag.Parse()

	c, err := topo.Build(topo.DefaultConfig(*nodes, *seed))
	if err != nil {
		log.Fatal(err)
	}

	demand := make([]int, *nodes+1)
	for v := 1; v <= *nodes; v++ {
		demand[v] = 1
	}
	plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
	if err != nil {
		log.Fatal(err)
	}

	var part *sector.Partition
	if *sectors {
		part, err = sector.BuildPartition(c.G, topo.Head, plan.CycleRoutes(0), demand, sector.Options{})
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Print(renderMap(c, part, *width))
	fmt.Printf("\n%d sensors in a %.0f m square; head '@' at the center\n", *nodes, c.Cfg.Side)
	levels := map[int]int{}
	for v := 1; v <= *nodes; v++ {
		levels[c.Level[v]]++
	}
	fmt.Print("hop levels: ")
	for l := 1; levels[l] > 0; l++ {
		fmt.Printf("L%d=%d ", l, levels[l])
	}
	fmt.Printf("\nrouting delta (min-max load): %d\n", plan.Delta)
	if part != nil {
		fmt.Printf("sectors: %d\n", part.NSectors())
		for k, sec := range part.Sectors {
			fmt.Printf("  %c: roots %v, %d sensors\n", 'A'+k%26, part.Roots[k], len(sec))
		}
	}
}

func renderMap(c *topo.Cluster, part *sector.Partition, width int) string {
	if width < 10 {
		width = 10
	}
	height := width / 2 // terminal cells are ~2x taller than wide
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", width))
	}
	side := c.Cfg.Side
	place := func(x, y float64, ch byte) {
		col := int(x / side * float64(width-1))
		row := int(y / side * float64(height-1))
		if row >= 0 && row < height && col >= 0 && col < width {
			grid[row][col] = ch
		}
	}
	for v := 1; v < c.Med.N(); v++ {
		p := c.Med.Pos(v)
		ch := byte('?')
		switch {
		case part != nil:
			if k := part.SectorOf(v); k >= 0 {
				ch = byte('A' + k%26)
			}
		case c.Level[v] > 0 && c.Level[v] <= 9:
			ch = byte('0' + c.Level[v])
		}
		place(p.X, p.Y, ch)
	}
	h := c.Med.Pos(topo.Head)
	place(h.X, h.Y, '@')
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
