package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny keeps every round of the tests well under a second; web-restart needs
// enough requests to span a restart whatever the seed's phase.
var tiny = sizes{guests: 400, requests: 40000, bulkMiB: 64}

func TestMetricCatalogue(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, s := range append(append([]unitSpec(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(s.name) {
			t.Errorf("metric name %q does not match %s", s.name, valid)
		}
		if seen[s.name] {
			t.Errorf("metric %q listed twice", s.name)
		}
		seen[s.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []unitSpec) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	if len(spec.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Work), len(workloads))
	}
}

// TestAttribution checks the attribution rule on stacks recorded from real
// traced rounds: innermost layer frame, handoff counted as sim, GC bucket.
func TestAttribution(t *testing.T) {
	f, err := os.Open("testdata/stacks.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var samples []sample
	want := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed line %q", line)
		}
		ns, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		frames := strings.Split(fields[2], ";")
		stack := make([]string, len(frames))
		for i, fn := range frames {
			stack[len(frames)-1-i] = fn
		}
		if got := attribute(stack); got != fields[0] {
			t.Errorf("stack ending in %s: attributed to %s, want %s", frames[len(frames)-1], got, fields[0])
		}
		samples = append(samples, sample{stack: stack, ns: ns})
		want[fields[0]] += float64(ns)
		total += float64(ns)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := shares(samples)
	for bucket, ns := range want {
		if d := got[bucket] - ns/total; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s share %v, want %v", bucket, got[bucket], ns/total)
		}
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestDecodeProfile checks the pprof decoder on a profile taken here.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.ns <= 0 {
			t.Errorf("sample with %d ns", s.ns)
		}
		for _, fn := range s.stack {
			if fn == "xoar/perfbench.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample of %d has xoar/perfbench.spin on its stack", len(samples))
	}
}

// TestSmoke runs one tiny round of each workload, untraced and traced,
// and checks that both pass their checks and agree on the simulated clock.
func TestSmoke(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			plain, err := w(7, tiny, newMeter(nil))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w(7, tiny, newMeter(newTracer()))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range problems([]*round{plain, traced}) {
				t.Error(p)
			}
			if plain.ops <= 0 || plain.attempted <= 0 {
				t.Errorf("ops %v, attempted %d", plain.ops, plain.attempted)
			}
			for _, s := range endToEnd {
				if strings.HasPrefix(s.name, "sim_") && plain.sim[s.name] <= 0 {
					t.Errorf("%s = %v", s.name, plain.sim[s.name])
				}
			}
			if len(traced.m.tr.spans) == 0 {
				t.Error("traced round recorded no spans")
			}
		})
	}
}

// simJSON renders a round's sim-clock values; encoding/json sorts map keys,
// so equal maps give equal bytes.
func simJSON(t *testing.T, r *round) []byte {
	b, err := json.Marshal(r.sim)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSimDeterminism: two runs of one seed give byte-identical sim-clock
// metrics, at GOMAXPROCS 1 and 2 alike, and another seed gives other inputs.
func TestSimDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			var runs [][]byte
			for _, procs := range []int{1, 2, 2} {
				runtime.GOMAXPROCS(procs)
				r, err := w(11, tiny, newMeter(nil))
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, simJSON(t, r))
			}
			for i := 1; i < len(runs); i++ {
				if !bytes.Equal(runs[0], runs[i]) {
					t.Errorf("run %d differs from run 1:\n%s\n%s", i+1, runs[i], runs[0])
				}
			}
			other, err := w(12, tiny, newMeter(nil))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(runs[0], simJSON(t, other)) {
				t.Errorf("seeds 11 and 12 gave identical sim-clock metrics: %s", runs[0])
			}
		})
	}
}

// TestRunOutput runs the command end to end at a tiny size and checks the
// shape of its last line.
func TestRunOutput(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		code := run([]string{"--workload", "bulk-disk", "--seed", "3", "--seconds", "1", "--trace", trace,
			"--spans", t.TempDir()}, &out, tiny)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
			t.Errorf("--trace %s: correct %v, attempted %d, %d metrics (want %d)",
				trace, res.Correct, res.Attempted, len(res.Metrics), len(want))
		}
		for _, s := range want {
			if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
				t.Errorf("--trace %s: metric %s missing or not in %s", trace, s.name, s.unit)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, tiny); code == 0 {
		t.Error("unknown workload accepted")
	}
}
