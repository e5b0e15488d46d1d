// Chrome trace_event export: renders a tracer's span buffer in the JSON
// format chrome://tracing and Perfetto load directly, so pipelined span
// trees (e.g. the Builder's build-batch construct/boot overlap) can be
// inspected on a real timeline instead of read out of a flat dump.

package telemetry

import (
	"encoding/json"

	"xoar/internal/sim"
)

// ChromeTraceEvent is one entry in the trace_event array. Only the "X"
// (complete) and "M" (metadata) phases are emitted; timestamps and
// durations are microseconds of simulated time, per the format.
type ChromeTraceEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTraceFile is the top-level JSON object variant of the format.
type chromeTraceFile struct {
	TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

const chromePID = 1

func usOf(t sim.Time) float64        { return float64(t) / float64(sim.Microsecond) }
func usOfDur(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

// chromeTrace renders span events as a trace_event JSON document. Each span
// domain becomes one named "thread" (tid assigned in first-appearance
// order), every span a complete ("X") event on its domain's track, so
// parent/child nesting and cross-domain overlap are visible directly.
// Spans still open at export time are flagged with args.open and rendered
// with zero duration rather than dropped.
func chromeTrace(events []SpanEvent) ([]byte, error) {
	tids := make(map[string]int)
	var out []ChromeTraceEvent
	out = append(out, ChromeTraceEvent{
		Name: "process_name", Phase: "M", PID: chromePID, TID: 0,
		Args: map[string]string{"name": "xoar-sim"},
	})
	tidFor := func(domain string) int {
		if tid, ok := tids[domain]; ok {
			return tid
		}
		tid := len(tids) + 1
		tids[domain] = tid
		out = append(out, ChromeTraceEvent{
			Name: "thread_name", Phase: "M", PID: chromePID, TID: tid,
			Args: map[string]string{"name": domain},
		})
		return tid
	}
	for _, ev := range events {
		dur := usOfDur(ev.Duration)
		e := ChromeTraceEvent{
			Name: ev.Name, Phase: "X",
			TS: usOf(ev.Start), Dur: &dur,
			PID: chromePID, TID: tidFor(ev.Domain),
			Args: map[string]string{"domain": ev.Domain},
		}
		if ev.Open {
			e.Args["open"] = "true"
		}
		out = append(out, e)
	}
	return json.MarshalIndent(chromeTraceFile{TraceEvents: out, DisplayTimeUnit: "ms"}, "", "  ")
}

// ChromeTrace exports the tracer's recorded spans; empty (but valid) JSON
// on a nil tracer.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	return chromeTrace(t.Events())
}
