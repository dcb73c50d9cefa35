// Command perfbench is the designer's end-to-end benchmark. It boots the
// real designer/serve HTTP service in-process over the synthetic SDSS
// dataset and drives one of three closed-loop workloads through the public
// HTTP API, checking every answer:
//
//	advise_design   automatic design: cold advise, then re-advise with new budgets
//	whatif_session  manual what-if design: add/evaluate/explain/drop
//	online_tuning   continuous tuning: an autopilot fed a drifting query stream
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it feeds
// the same generated inputs through each layer's Go functions with a span
// around every call and prints the per-layer metrics. The last line of
// standard output is one JSON object; the exit code is 1 when any
// correctness check failed. README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// size is the dataset size OpenSDSS generates.
	size string
	// setups is how many times setup is repeated to report its median.
	setups int
	// out is the directory the span dump is written to ("" = none).
	out string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"advise_design", "whatif_session", "online_tuning"}

func main() {
	var cfg config
	var seconds int
	var holdout int64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: advise_design, whatif_session or online_tuning")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Int64Var(&holdout, "holdout-seed", 0, "held-out seed for confirming a claim; replaces --seed when set")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the timed one")
	flag.StringVar(&cfg.out, "out", "", "directory for the span dump of a traced run")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.size = "small"
	cfg.setups = 3
	if holdout != 0 {
		cfg.seed = holdout
	}
	if !slices.Contains(workloads, cfg.workload) || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v, --seconds >= 1, --trace 0|1\n", workloads)
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and returns its result; the human-readable
// report goes to report. An error means the benchmark could not run at all
// (setup failed); failed checks are counted in the result instead.
func run(ctx context.Context, cfg config, report io.Writer) (*result, error) {
	in, err := newInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return runTraced(ctx, cfg, in, report)
	}
	return runTimed(ctx, cfg, in, report)
}
