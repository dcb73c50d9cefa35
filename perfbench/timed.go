package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/designer"
)

// setUp boots the service cfg.setups times, keeps the last instance and
// returns the median setup time in seconds. Earlier instances are shut
// down before the next one is built, so only one dataset is alive at once.
func setUp(ctx context.Context, cfg config) (*service, float64, error) {
	var svc *service
	var took []float64
	for i := 0; i < cfg.setups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, 0, fmt.Errorf("stop setup %d: %w", i, err)
			}
			svc = nil
			runtime.GC()
		}
		s, d, err := boot(ctx, cfg.size, cfg.seed)
		if err != nil {
			return nil, 0, err
		}
		svc = s
		took = append(took, d.Seconds())
	}
	return svc, median(took), nil
}

// runTimed is the --trace 0 run: the closed loop for the measured window,
// then the checks that compare its answers with in-process references.
func runTimed(ctx context.Context, cfg config, in *inputs, report io.Writer) (*result, error) {
	svc, setup, err := setUp(ctx, cfg)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	lat := newLatencies()
	win := window{deadline: time.Now().Add(cfg.window), minCycles: 1}
	var kinds []string
	var work float64
	var elapsed time.Duration
	var quality float64
	named := map[string]metric{}

	start := time.Now()
	switch cfg.workload {
	case "advise_design":
		// The verified prefix runs before the window: each answer is
		// re-derived in-process right after it arrives. The pauses would
		// distort throughput, so the prefix counts towards the latency
		// samples only.
		var savings []float64
		record := func(a designAnswer) {
			if a.cycle < qualityCycles {
				savings = append(savings, a.saving())
			}
		}
		ref := &adviseReference{d: svc.d}
		err = adviseLoop(ctx, svc.c, in, 0, window{minCycles: verifiedCycles}, lat, t,
			func(a designAnswer) error {
				record(a)
				return ref.check(ctx, a)
			})
		start = time.Now()
		win.deadline = start.Add(cfg.window)
		win.minCycles = qualityCycles - verifiedCycles
		if err == nil {
			err = adviseLoop(ctx, svc.c, in, verifiedCycles, win, lat, t,
				func(a designAnswer) error { record(a); return nil })
		}
		elapsed = time.Since(start)
		quality = mean(savings)
		kinds = []string{"advise", "readvise"}
		work = float64(len(lat.of(kinds...)) - verifiedCycles*(1+readvisesPerCycle))
		addLatency(named, "advise", lat.of("advise"))
		addLatency(named, "readvise", lat.of("readvise"))
		named["design_per_s"] = metric{work / elapsed.Seconds(), "1/s"}
		named["advice_saving_pct"] = metric{quality, "%"}
	case "whatif_session":
		run := whatifLoop(ctx, svc.c, in, win, lat, t)
		elapsed = time.Since(start)
		quality = whatifSaving(run.first)
		kinds = []string{"add", "evaluate", "explain", "drop"}
		work = float64(len(lat.of(kinds...)))
		all := lat.of(kinds...)
		named["whatif_p50_ms"] = metric{ms(percentile(all, 50)), "ms"}
		named["whatif_p99_ms"] = metric{ms(percentile(all, 99)), "ms"}
		named["whatif_per_s"] = metric{work / elapsed.Seconds(), "1/s"}
		named["whatif_saving_pct"] = metric{quality, "%"}
	case "online_tuning":
		passes := onlineLoop(ctx, svc.c, in, win, lat, t)
		var streamed time.Duration
		for _, p := range passes {
			work += float64(p.observed)
			streamed += p.streamed
		}
		elapsed = streamed
		kinds = []string{"observe"}
		regret := 0.0
		if len(passes) > 0 {
			regret = passes[0].final.Status.RegretPct
			quality = oracleShare(passes[0].final)
		}
		named["observe_per_s"] = metric{work / streamed.Seconds(), "1/s"}
		named["observe_p90_ms"] = metric{ms(percentile(lat.of("observe"), 90)), "ms"}
		named["final_regret_pct"] = metric{regret, "%"}
		named["passes"] = metric{float64(len(passes)), "count"}
	}
	if err != nil {
		return nil, err
	}
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	pooled := lat.of(kinds...)
	res := &result{
		Correct:   t.failed == 0 && len(pooled) > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":          {setup, "s"},
			"p50_ms":           {ms(percentile(pooled, 50)), "ms"},
			"p90_ms":           {ms(percentile(pooled, 90)), "ms"},
			"throughput_per_s": {work / elapsed.Seconds(), "1/s"},
			"peak_rss_mb":      {peakRSSMB(), "MB"},
			"ok_pct":           {okPct(t), "%"},
			"quality_pct":      {quality, "%"},
		},
	}
	named["setup_s"] = res.Metrics["setup_s"]
	named["peak_rss_mb"] = res.Metrics["peak_rss_mb"]
	named["error_pct"] = metric{100 - okPct(t), "%"}
	fmt.Fprintf(report, "workload %s seed %d: %d requests attempted, %d failed, %d timed samples over %.2fs\n",
		cfg.workload, cfg.seed, t.attempted, t.failed, len(pooled), elapsed.Seconds())
	printMetrics(report, named)
	for _, e := range t.errs {
		fmt.Fprintln(report, "FAILED:", e)
	}
	return res, nil
}

// adviseReference re-derives the HTTP answers of advise_design cycles in
// process, on the server's own designer, right after each answer arrives.
// A cold advise answer must equal designer.Advise. A readvise answer must
// equal the in-process session's ReAdvise after the same earlier questions
// and, when both solves proved optimality within the node budget, have the
// objective designer.Advise finds cold. Its index set is not compared with
// the cold one: among designs with the same objective, a warm-started
// solve may return a different one.
type adviseReference struct {
	d    *designer.Designer
	sess *designer.DesignSession
	w    *designer.Workload
}

func (r *adviseReference) check(ctx context.Context, a designAnswer) error {
	opts := adviceOptions(a.request)
	cold := a.first
	if cold {
		w, err := r.d.WorkloadFromSQL(a.sql)
		if err != nil {
			return err
		}
		r.w, r.sess = w, r.d.NewDesignSession()
	}
	var ref *designer.Advice
	var err error
	if cold {
		ref, err = r.d.Advise(ctx, r.w, opts)
		if err == nil {
			_, err = r.sess.Advise(ctx, r.w, opts) // primes the session for the readvises
		}
	} else {
		ref, _, err = r.sess.ReAdvise(ctx, r.w, opts)
	}
	if err != nil {
		return err
	}
	what := "HTTP advise vs in-process designer.Advise"
	if !cold {
		what = "HTTP readvise vs in-process session ReAdvise"
	}
	if err := sameDesign(what, a, keysOf(ref), ref.Solver.Objective); err != nil {
		return err
	}
	if cold {
		return nil
	}
	fresh, err := r.d.Advise(ctx, r.w, opts)
	if err != nil {
		return err
	}
	if a.proven && fresh.Solver.Proven && math.Float64bits(fresh.Solver.Objective) != math.Float64bits(a.objective) {
		return fmt.Errorf("readvise objective %v, cold designer.Advise %v (budget %d)", a.objective, fresh.Solver.Objective, a.request.budget)
	}
	return nil
}

// oracleShare is the oracle-best design's cost in percent of the live
// design's cost, summed over every epoch of the regret trajectory: 100 when
// the autopilot always ran the best design.
func oracleShare(ap autopilotResponse) float64 {
	var oracle, live float64
	for _, r := range ap.Regret {
		oracle += r.OracleCost
		live += r.LiveCost
	}
	if live == 0 {
		return 0
	}
	return 100 * oracle / live
}

// adviceOptions are the facade options of one advise_design request.
func adviceOptions(rq adviseRequest) designer.AdviceOptions {
	return designer.AdviceOptions{
		StorageBudgetPages: rq.budget, NodeBudget: adviseNodeBudget,
		Partitions: rq.partitions, Interactions: true,
	}
}

func keysOf(a *designer.Advice) []string {
	keys := make([]string, len(a.Indexes))
	for i, ix := range a.Indexes {
		keys[i] = ix.Key()
	}
	return keys
}

func addLatency(named map[string]metric, kind string, d []time.Duration) {
	named[kind+"_p50_ms"] = metric{ms(percentile(d, 50)), "ms"}
	named[kind+"_p90_ms"] = metric{ms(percentile(d, 90)), "ms"}
	named[kind+"_max_ms"] = metric{ms(percentile(d, 100)), "ms"}
	named[kind+"_samples"] = metric{float64(len(d)), "count"}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func okPct(t *tally) float64 {
	if t.attempted == 0 {
		return 0
	}
	return 100 * float64(t.attempted-t.failed) / float64(t.attempted)
}

// percentile interpolates linearly between the closest ranks.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set so far; the process hosts
// the server, so this is the server's memory high-water mark plus the
// benchmark's own small share.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
