// Command perfbench is the campaign benchmark. It runs one workload of
// the Definition 2 checking campaign (check.Run) for a fixed time,
// checks the campaign's outputs, and prints every metric by name and
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3000, "failed": 0, "metrics": {"cpu_s_per_kprog": {"value": 7.1, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on
// untraced campaigns. With --trace 1 a traced replay of the campaign's
// per-program pipeline gives the per-layer ones. Build and run it from
// the repository root with
//
//	bash perfbench/run.sh --workload ref-campaign --seed 1 --seconds 6 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

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

func main() {
	var (
		name       = flag.String("workload", "", "workload: ref-campaign, big-machine or seeded-bug")
		seed       = flag.Int64("seed", 1, "campaign seed; every program and machine seed derives from it")
		seconds    = flag.Float64("seconds", 6, "how long to measure")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		out        = flag.String("out", ".bench_build", "directory for span dumps and scratch journals")
		setupChild = flag.Bool("setup-child", false, "internal: run one cold one-program campaign, timed by the parent for setup_s")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *setupChild {
		if err := runSetupChild(w, *seed); err != nil {
			fatal(err)
		}
		return
	}
	var res *result
	switch *trace {
	case 0:
		res, err = endToEnd(w, *seed, *seconds)
	case 1:
		res, err = perLayer(w, *seed, *seconds, *out)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
