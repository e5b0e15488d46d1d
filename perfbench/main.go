// Command perfbench is the repository benchmark. It drives three workloads
// through the public APIs of the cluster, experiments, guest and snapshot
// packages, checks their outputs, and prints every metric by name and unit,
// ending with one JSON line:
//
//	go run . --workload fleet-churn --seed 1 --seconds 10 --trace 0
//
// A run repeats the workload's round (set-up, then a timed region of fixed
// simulated work) until --seconds of host time are spent, and reports
// medians over rounds. --trace 0 reports the end-to-end metrics from
// untraced rounds. --trace 1 spends half its time on untraced rounds and
// half on traced ones (CPU profile, telemetry registries, spans) and reports
// the per-layer metrics; the spans of the first traced round are written to
// the --spans directory. See README.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type unitSpec struct{ name, unit string }

// endToEnd and perLayer are the metric catalogue; BENCHMARK.json lists the
// same names and units, which a test checks.
var endToEnd = []unitSpec{
	{"setup_s", "s"},
	{"ops_per_host_s", "1/s"},
	{"heap_peak_MB", "MB"},
	{"alloc_B_per_op", "B"},
	{"live_heap_end_MB", "MB"},
	{"sim_ops_per_s", "1/s"},
	{"sim_latency_ms", "ms"},
}

var perLayer = func() []unitSpec {
	var out []unitSpec
	for _, l := range layers {
		out = append(out, unitSpec{l + ".cpu_frac", "frac"})
	}
	return append(out, []unitSpec{
		{"runtime.gc_cpu_frac", "frac"},
		{"bench.cpu_frac", "frac"},
		{"other.cpu_frac", "frac"},
		{"trace.overhead_frac", "frac"},
		{"mem.retained_B_per_op", "B"},
		{"sim.slice_host_ms_p50", "ms"},
		{"sim.slice_host_ms_p90", "ms"},
		{"sim.compactions", "count"},
		{"sim.queue_len_peak", "count"},
		{"sim.live_procs_peak", "count"},
		{"cluster.destroy_host_us_p50", "us"},
		{"cluster.destroy_host_us_p99", "us"},
		{"cluster.destroy_growth", "ratio"},
		{"cluster.destroy_blocked", "count"},
		{"cluster.placements", "count"},
		{"cluster.placement_failures", "count"},
		{"cluster.spread", "count"},
		{"hv.domains_live_end", "count"},
		{"hv.denied_calls", "count"},
		{"builder.queue_wait_ms_p50", "ms"},
		{"builder.queue_wait_ms_p99", "ms"},
		{"builder.build_latency_ms_p50", "ms"},
		{"builder.build_latency_ms_p99", "ms"},
		{"builder.builds", "count"},
		{"xenstore.requests_per_op", "count/op"},
		{"netdrv.rx_descs_per_wakeup", "count"},
		{"netdrv.tx_descs_per_wakeup", "count"},
		{"netdrv.notifies_per_op", "count/op"},
		{"netdrv.suppressed_frac", "frac"},
		{"blkdrv.descs_per_wakeup", "count"},
		{"blkdrv.notifies_per_op", "count/op"},
		{"snapshot.restarts", "count"},
		{"snapshot.downtime_ms_p50", "ms"},
		{"snapshot.restart_errors", "count"},
		{"guest.retransmits", "count"},
		{"guest.stalls", "count"},
		{"guest.latency_max_ms", "ms"},
		{"mm.free_MB_delta", "MB"},
		{"workload.coldstart_p50_ms", "ms"},
		{"workload.coldstart_p99_ms", "ms"},
		{"workload.coldstart_samples", "count"},
		{"workload.error_rate", "frac"},
	}...)
}()

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
	os.Exit(run(os.Args[1:], os.Stdout, fullSize))
}

func run(args []string, stdout io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: fleet-churn, web-restart or bulk-disk")
	seed := fs.Int64("seed", 1, "seed every input of the workload is drawn from")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", filepath.Join(".bench_build", "perfbench"), "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 0 {
		res, err = endToEndRun(w, *seed, sz, budget)
	} else {
		spanFile := filepath.Join(*spans, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		res, err = tracedRun(w, *seed, sz, budget, spanFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// rounds repeats the workload until budget is spent, or at least minRounds
// times. A round is not started when the last one suggests it would end
// past the budget. The first round of a run warms the runtime, growing the
// heap and the goroutine pool later rounds reuse; callers check it but do
// not measure it.
func rounds(w workloadFunc, seed int64, sz sizes, budget time.Duration, minRounds int, traced bool) ([]*round, error) {
	var out []*round
	start := time.Now()
	var last time.Duration
	for len(out) < minRounds || time.Since(start)+last <= budget {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		t0 := time.Now()
		r, err := w(seed, sz, newMeter(tr))
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		r.sim["sim.compactions"] = float64(r.m.compact)
		r.sim["sim.queue_len_peak"] = float64(r.m.queuePeak)
		r.sim["sim.live_procs_peak"] = float64(r.m.procsPeak)
		out = append(out, r)
	}
	return out, nil
}

// problems collects every failed check of the rounds, plus any sim-clock
// value that differs from the first round's: the model is deterministic, so
// equal seeds must agree bit for bit, traced or not.
func problems(rs []*round) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.problems...)
	}
	ref := rs[0].sim
	for i, r := range rs[1:] {
		for k, v := range ref {
			if r.sim[k] != v {
				out = append(out, fmt.Sprintf("sim-clock %s differs between rounds: %v in round 1, %v in round %d", k, v, r.sim[k], i+2))
			}
		}
		if len(r.sim) != len(ref) {
			out = append(out, fmt.Sprintf("round %d reports %d sim-clock values, round 1 %d", i+2, len(r.sim), len(ref)))
		}
	}
	return out
}

func endToEndRun(w workloadFunc, seed int64, sz sizes, budget time.Duration) (result, error) {
	all, err := rounds(w, seed, sz, budget, 4, false)
	if err != nil {
		return result{}, err
	}
	res := newResult(all)
	rs := all[1:]
	vals := map[string]float64{
		"setup_s":        median(rs, func(r *round) float64 { return r.m.setup.Seconds() }),
		"ops_per_host_s": median(rs, opsPerHostS),
		"heap_peak_MB":   median(rs, func(r *round) float64 { return (float64(r.m.heapPeak) - float64(r.m.liveBefore)) / 1e6 }),
		"alloc_B_per_op": median(rs, func(r *round) float64 { return float64(r.m.allocBytes) / r.ops }),
		"live_heap_end_MB": median(rs, func(r *round) float64 {
			return (float64(r.m.liveAtEnd) - float64(r.m.liveBefore)) / 1e6
		}),
		"sim_ops_per_s":  rs[0].sim["sim_ops_per_s"],
		"sim_latency_ms": rs[0].sim["sim_latency_ms"],
	}
	for _, s := range endToEnd {
		res.Metrics[s.name] = metric{vals[s.name], s.unit}
	}
	return res, nil
}

func tracedRun(w workloadFunc, seed int64, sz sizes, budget time.Duration, spanFile string) (result, error) {
	plain, err := rounds(w, seed, sz, budget/2, 3, false)
	if err != nil {
		return result{}, err
	}
	traced, err := rounds(w, seed, sz, budget/2, 2, true)
	if err != nil {
		return result{}, err
	}
	res := newResult(append(plain, traced...))
	plain = plain[1:]

	vals := map[string]float64{}
	var samples []sample
	var slices []float64
	for _, r := range traced {
		s, err := decodeProfile(r.m.profile.Bytes())
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s...)
		slices = append(slices, r.m.sliceMS...)
	}
	for bucket, f := range shares(samples) {
		if bucket == bucketGC {
			vals["runtime.gc_cpu_frac"] = f
		} else {
			vals[bucket+".cpu_frac"] = f
		}
	}
	vals["trace.overhead_frac"] = 1 - median(traced, opsPerHostS)/median(plain, opsPerHostS)
	vals["mem.retained_B_per_op"] = median(plain, retainedPerOp)
	vals["sim.slice_host_ms_p50"] = percentile(slices, 50)
	vals["sim.slice_host_ms_p90"] = percentile(slices, 90)
	for k, v := range traced[0].sim {
		vals[k] = v
	}
	for k := range traced[0].layer {
		vals[k] = median(traced, func(r *round) float64 { return r.layer[k] })
	}
	for _, s := range perLayer {
		res.Metrics[s.name] = metric{vals[s.name], s.unit}
	}
	if err := traced[0].m.tr.write(spanFile); err != nil {
		return result{}, err
	}
	return res, nil
}

func newResult(rs []*round) result {
	res := result{Metrics: map[string]metric{}}
	for _, r := range rs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	probs := problems(rs)
	for _, p := range probs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.Correct = len(probs) == 0
	return res
}

// printResult writes one line per metric, then the result as the last line
// of JSON.
func printResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func opsPerHostS(r *round) float64 { return r.ops / r.m.timed.Seconds() }

// retainedPerOp is the live heap the timed region left behind, per operation.
func retainedPerOp(r *round) float64 {
	return (float64(r.m.liveAtEnd) - float64(r.m.liveAtSetup)) / r.ops
}

// median is the median of f over rounds.
func median(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return percentile(xs, 50)
}

// percentile returns the nearest-rank pth percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(p/100*float64(len(xs)) + 0.999999)
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1]
}
