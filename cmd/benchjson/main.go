// Command benchjson runs the repo's Go benchmarks and writes the parsed
// results as JSON, so performance PRs can check in a machine-readable
// snapshot (e.g. BENCH_PR1.json) instead of pasted terminal output.
//
//	benchjson -bench 'GreedyScheduler|GroupCompatible|TestedOracle' -o BENCH_PR1.json
//	benchjson -bench FieldEpoch -pkgs ./internal/field/ -o BENCH_PR3.json
//	benchjson -count 3 -note "after power-matrix cache"
//	benchjson -bench FieldEpochLarge -benchtime 1x -timeout 30m -o BENCH_PR6.json
//
// A snapshot records one host's numbers. Compare revisions by running
// both on the same host (bench/run.sh), never against a file recorded
// elsewhere.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Snapshot is the file format: environment metadata plus results.
type Snapshot struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Note      string   `json:"note,omitempty"`
	Results   []Result `json:"results"`
}

// benchLine matches e.g.
//
//	BenchmarkGreedyScheduler-4   300   3903215 ns/op   4576160 B/op   36033 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	var (
		bench     = flag.String("bench", ".", "benchmark regexp passed to go test -bench")
		pkgs      = flag.String("pkgs", "./...", "packages to benchmark")
		count     = flag.Int("count", 1, "benchmark repetitions (go test -count)")
		benchtime = flag.String("benchtime", "", "per-benchmark budget passed to go test -benchtime (e.g. 2s or 5x); expensive large-field fixtures want a fixed iteration count like 1x")
		timeout   = flag.String("timeout", "", "overall go test -timeout (default: go's own)")
		out       = flag.String("o", "", "output file (default stdout)")
		note      = flag.String("note", "", "free-form note stored in the snapshot")
	)
	flag.Parse()

	args := []string{
		"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-count", strconv.Itoa(*count),
	}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	if *timeout != "" {
		args = append(args, "-timeout", *timeout)
	}
	args = append(args, *pkgs)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}

	snap := Snapshot{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Note:      *note,
	}
	pkg := ""
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := Result{Package: pkg, Name: m[1]}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		snap.Results = append(snap.Results, r)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		log.Fatal(err)
	}
	if len(snap.Results) == 0 {
		log.Fatal("no benchmark results parsed")
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d results)", *out, len(snap.Results))
	} else {
		os.Stdout.Write(enc)
	}
}
