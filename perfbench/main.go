// Command perfbench is offloadnn's open-loop serving benchmark. It builds
// a workload's serving stack in this process through the public
// constructors, serves it on loopback listeners, drives it with a seeded
// open-loop generator, checks every answer bit for bit against reference
// logits, and prints one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one named traffic mix over one serving stack.
type workload struct {
	name  string
	build func(frames [][]float64, tr *tracer) (*stack, error)
	shape [3]int // frame shape (C, H, W)
	// setups is how many times a run builds the stack to time set-up.
	setups int
	// rate is the fixed offered rate (req/s) behind p50/p99/hit ratio,
	// offered for fixedShare of the measured seconds; the capacity
	// ladder takes the rest.
	rate, fixedShare float64
	// limit is the p99 latency limit a capacity rung must meet.
	limit time.Duration
	// ladderStart is the first capacity rung (req/s); rungs grow by
	// ladderGrowth until one fails, then bisect.
	ladderStart, ladderGrowth float64
	// churnRate is the registry write rate (writes/s) run beside the
	// offloads; zero runs a trailing write probe instead.
	churnRate float64
}

var workloads = []*workload{
	{
		name: "shared-small", build: buildSharedSmall, shape: [3]int{3, 8, 8}, setups: 51,
		rate: 300, fixedShare: 0.3, limit: 50 * time.Millisecond, ladderStart: 500, ladderGrowth: 1.15,
	},
	{
		name: "split-large", build: buildSplitLarge, shape: [3]int{3, 32, 32}, setups: 15,
		rate: 150, fixedShare: 0.45, limit: 250 * time.Millisecond, ladderStart: 240, ladderGrowth: 1.15,
	},
	{
		name: "churn", build: buildChurn, shape: [3]int{3, 8, 8}, setups: 3,
		rate: 200, fixedShare: 0.45, limit: 100 * time.Millisecond, ladderStart: 450, ladderGrowth: 1.15,
		churnRate: 10,
	},
}

// framePool is the number of distinct seeded frames a run offloads.
const framePool = 16

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	conns   int
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: shared-small, split-large or churn")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 36, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	commit := flag.String("commit", "unknown", "commit the benchmarked tree was built from")
	flag.Parse()
	var wl *workload
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds ≥ 1, --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, conns: runtime.NumCPU()}
	prov := provenance(*commit, wl.name, *seed, *trace)
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(wl, cfg)
	} else {
		res, err = runEndToEnd(wl, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong logits or failed operations, see the result line")
		return 1
	}
	return 0
}

// provenance records where and when a result was measured.
func provenance(commit, name string, seed int64, trace int) map[string]any {
	return map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   name,
		"seed":       seed,
		"trace":      trace,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// buildTimed builds the stack setups times, timing each build from
// construction to ready-to-serve (first solve, install and reference
// logits included), and keeps the last one.
func buildTimed(wl *workload, frames [][]float64, tr *tracer, setups int) (*stack, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := wl.build(frames, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setups-1 {
			return st, times, nil
		}
		st.close()
	}
}
