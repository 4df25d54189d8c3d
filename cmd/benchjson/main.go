// Benchjson converts `go test -bench` text output on stdin into a JSON
// document on stdout, so benchmark results can be archived as machine-
// readable artifacts (see the Makefile's bench-parallel target, which
// records the parallel engine's speedup curve in BENCH_parallel.json).
//
//	go test -run '^$' -bench CertifyLotParallel . | benchjson > BENCH_parallel.json
//
// With -scale it instead measures the capacity-tier scale curve itself:
// for each point (10⁴, 10⁵, 10⁶ gates certified; 10⁷ parse-and-levelize
// only) it re-executes itself as a child process that generates, parses
// and certifies a synthetic netlist of that size, and records the
// child's wall-clock phase timings together with its peak RSS (from the
// parent's wait rusage). -max-gates and -certify-max-gates bound the
// curve for CI budgets:
//
//	benchjson -scale > BENCH_scale.json
//	benchjson -scale -max-gates 100000 > BENCH_scale.json   # CI smoke
//
// Each benchmark line
//
//	BenchmarkFoo/sub-8   5   123456 ns/op   2.00 speedup
//
// becomes {"name": "Foo/sub", "procs": 8, "iterations": 5,
// "ns_per_op": 123456, "metrics": {"speedup": 2}}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type document struct {
	Date       string      `json:"date"`
	GoOS       string      `json:"goos"`
	GoArch     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	var (
		scale      = flag.Bool("scale", false, "measure the capacity-tier scale curve instead of converting stdin")
		maxGates   = flag.Int("max-gates", 10_000_000, "scale: largest point to run")
		certifyMax = flag.Int("certify-max-gates", 1_000_000, "scale: largest point to certify (larger points parse+levelize only)")

		scaleChild   = flag.Bool("scale-child", false, "internal: run one scale point in-process")
		childGates   = flag.Int("gates", 0, "internal: gate count for -scale-child")
		childCertify = flag.Bool("certify", false, "internal: certify in -scale-child")
	)
	flag.Parse()
	switch {
	case *scaleChild:
		if err := runScaleChild(*childGates, *childCertify); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	case *scale:
		if err := runScale(*maxGates, *certifyMax); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	doc := document{
		Date:   time.Now().UTC().Format(time.RFC3339),
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine decodes one `Benchmark... N value unit [value unit]...` line.
func parseLine(line string) (benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchmark{}, false
	}
	b := benchmark{Name: strings.TrimPrefix(fields[0], "Benchmark")}
	// A trailing -N on the name is the GOMAXPROCS suffix.
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	iter, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b.Iterations = iter
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		if fields[i+1] == "ns/op" {
			b.NsPerOp = val
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[fields[i+1]] = val
	}
	return b, true
}
