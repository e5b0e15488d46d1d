package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"xoar/internal/sim"
)

// slice is the simulated interval the benchmark advances between host
// samples. Events fire at absolute simulated times, so the slicing never
// changes what the model computes, only how often the host is sampled.
const slice = 100 * sim.Millisecond

// meter takes the host-clock measurements of one round: set-up time, the
// timed region, heap usage sampled between sim slices, and allocation and
// retention deltas. A round is set-up, then the timed region, then the
// end-of-round reading.
type meter struct {
	tr *tracer // nil when the round is untraced

	setupStart time.Time
	setup      time.Duration
	timedStart time.Time
	timed      time.Duration

	allocAtSetup uint64
	allocBytes   uint64
	liveBefore   uint64 // before set-up
	liveAtSetup  uint64
	liveAtEnd    uint64
	heapPeak     uint64

	sliceMS   []float64 // host ms per simulated second, one per slice; traced rounds only
	queuePeak int
	procsPeak int
	compact0  int
	compact   int

	// profile holds the CPU profile of the timed region, traced rounds only.
	profile bytes.Buffer

	samples []metrics.Sample
}

const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mLiveBytes   = "/gc/heap/live:bytes"
)

func newMeter(tr *tracer) *meter {
	return &meter{tr: tr, samples: []metrics.Sample{
		{Name: mHeapObjects}, {Name: mAllocBytes}, {Name: mLiveBytes},
	}}
}

func (m *meter) read() (heapObjects, allocs, live uint64) {
	metrics.Read(m.samples)
	return m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64(), m.samples[2].Value.Uint64()
}

// beginSetup starts the set-up clock from a collected heap, so garbage left
// by the previous round is not charged to this one.
func (m *meter) beginSetup() {
	runtime.GC()
	_, _, m.liveBefore = m.read()
	m.setupStart = time.Now()
}

// endSetup stops the set-up clock, records the live heap the set-up left
// behind, and starts the timed region.
func (m *meter) endSetup(env *sim.Env) {
	m.setup = time.Since(m.setupStart)
	runtime.GC()
	_, _, m.liveAtSetup = m.read()
	m.compact0 = env.Compactions()
	_, m.allocAtSetup, _ = m.read()
	if m.tr != nil {
		if err := pprof.StartCPUProfile(&m.profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		}
	}
	m.timedStart = time.Now()
}

// drive advances env slice by slice until done reports true, sampling the
// host between slices. limit bounds the simulated time so a stuck model
// fails the round instead of spinning.
func (m *meter) drive(env *sim.Env, done func() bool, limit sim.Duration, parent spanID) error {
	deadline := env.Now().Add(limit)
	for !done() {
		if env.Now() >= deadline {
			return fmt.Errorf("workload did not finish within %v of simulated time", limit)
		}
		sp := m.tr.start("sim.RunFor", parent, env.Now())
		t0 := time.Now()
		env.RunFor(slice)
		sp.end(env.Now())
		if m.tr != nil {
			host := time.Since(t0)
			m.sliceMS = append(m.sliceMS, float64(host)/float64(time.Millisecond)/slice.Seconds())
		}
		heap, _, _ := m.read()
		m.heapPeak = max(m.heapPeak, heap)
		m.queuePeak = max(m.queuePeak, env.QueueLen())
		m.procsPeak = max(m.procsPeak, env.LiveProcs())
	}
	return nil
}

// endTimed stops the timed region.
func (m *meter) endTimed(env *sim.Env) {
	m.timed = time.Since(m.timedStart)
	if m.tr != nil {
		pprof.StopCPUProfile()
	}
	_, allocs, _ := m.read()
	m.allocBytes = allocs - m.allocAtSetup
	m.compact = env.Compactions() - m.compact0
}

// endRound reads the live heap after a full collection. The caller keeps
// the platform reachable across this call, so what the run retained in it
// is counted.
func (m *meter) endRound() {
	runtime.GC()
	_, _, m.liveAtEnd = m.read()
}

// --- spans ---------------------------------------------------------------------

type spanID int32

// span is one call the benchmark made into a layer, with both clocks. Host
// times are nanoseconds since the tracer started.
type span struct {
	ID       spanID `json:"id"`
	Parent   spanID `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	SimStart int64  `json:"sim_start_ns"`
	SimEnd   int64  `json:"sim_end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs one nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t  *tracer
	id spanID
}

func (t *tracer) start(name string, parent spanID, now sim.Time) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.origin)), SimStart: int64(now),
	})
	return spanRef{t: t, id: id}
}

func (s spanRef) end(now sim.Time) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.id-1]
	sp.End = int64(time.Since(s.t.origin))
	sp.SimEnd = int64(now)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
