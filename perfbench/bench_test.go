package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// ran names, per workload, the per-layer metrics of the layers it runs,
// which must read above 0; "" lists those of every workload. The other
// per-layer metrics read 0 or more, except trace.overhead_pct: it is the
// difference of two timings and may come out negative.
var ran = map[string]map[string]bool{
	"": set("storage.load_ms", "stats.analyze_ms", "sqlparse.parse_us",
		"serve.overhead_ms", "trace.coverage_pct"),
	"advise_design": set("whatif.candidates_ms", "whatif.candidates", "inum.prepare_ms",
		"inum.full_optimizations", "inum.cached_costings", "inum.hit_ratio",
		"optimizer.optimize_us", "cophy.pricing_calls", "cophy.build_ms", "lp.bnb_nodes",
		"lp.solve_ms", "engine.evaluate_ms", "engine.recosted_queries",
		"engine.reused_queries", "autopart.advise_ms", "interaction.analyze_ms",
		"schedule.greedy_ms", "designer.allocs_per_advise", "designer.alloc_mb_per_advise",
		"serve.handler_ms.advise", "serve.handler_ms.readvise"),
	"whatif_session": set("optimizer.optimize_us", "engine.evaluate_ms",
		"engine.recosted_queries", "engine.reused_queries", "serve.handler_ms.evaluate",
		"serve.handler_ms.explain", "serve.handler_ms.indexes"),
	"online_tuning": set("inum.full_optimizations", "inum.cached_costings", "inum.hit_ratio",
		"colt.observe_us", "autopilot.epoch_ms", "autopilot.decisions",
		"serve.handler_ms.observe"),
}

func set(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// TestShortRun runs every workload briefly on the tiny dataset, timed and
// traced, and checks that each metric BENCHMARK.json names comes out with
// its unit and a plausible value, and that every correctness check passed.
func TestShortRun(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w + "/timed"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w, seed: 3, window: time.Second, trace: traced, size: "tiny", setups: 1}
				var report bytes.Buffer
				res, err := run(context.Background(), cfg, &report)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
				}
				want := map[string]string{}
				for _, m := range sp.EndToEnd {
					want[m.Name] = m.Unit
				}
				if traced {
					want = map[string]string{}
					for _, m := range sp.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v, want a finite number", name, m.Value)
					case (!traced || ran[w][name] || ran[""][name]) && m.Value <= 0:
						t.Errorf("metric %s = %v, want > 0", name, m.Value)
					case m.Value < 0 && name != "trace.overhead_pct":
						t.Errorf("metric %s = %v, want >= 0", name, m.Value)
					}
				}
			})
		}
	}
}

func TestPercentile(t *testing.T) {
	d := []time.Duration{4, 1, 3, 2, 5}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0, 1}, {50, 3}, {100, 5}, {90, 4}} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}
