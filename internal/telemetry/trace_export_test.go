package telemetry

import (
	"encoding/json"
	"testing"

	"xoar/internal/sim"
)

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	root := tr.startRoot("builder", "build-batch[2]", sim.Time(10*sim.Millisecond))
	c0 := root.StartChild("construct:a", sim.Time(10*sim.Millisecond))
	c0.EndAt(sim.Time(12 * sim.Millisecond))
	b0 := root.StartChild("boot:a", sim.Time(12*sim.Millisecond))
	other := tr.startRoot("netback", "ring-setup", sim.Time(13*sim.Millisecond))
	other.EndAt(sim.Time(14 * sim.Millisecond))
	b0.EndAt(sim.Time(20 * sim.Millisecond))
	root.EndAt(sim.Time(20 * sim.Millisecond))
	open := tr.startRoot("builder", "never-ends", sim.Time(21*sim.Millisecond))
	_ = open

	raw, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
		DisplayTimeUnit string             `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var meta, complete []ChromeTraceEvent
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			meta = append(meta, ev)
		case "X":
			complete = append(complete, ev)
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	// process_name + one thread_name per domain (builder, netback).
	if len(meta) != 3 {
		t.Fatalf("metadata events = %d, want 3", len(meta))
	}
	if meta[0].Name != "process_name" || meta[0].Args["name"] != "xoar-sim" {
		t.Errorf("process metadata: %+v", meta[0])
	}
	if len(complete) != 5 {
		t.Fatalf("complete events = %d, want 5", len(complete))
	}

	// Spans of the same domain share a tid; distinct domains do not.
	tids := make(map[string]int)
	for _, ev := range complete {
		dom := ev.Args["domain"]
		if tid, ok := tids[dom]; ok && tid != ev.TID {
			t.Errorf("domain %q split across tids %d and %d", dom, tid, ev.TID)
		}
		tids[dom] = ev.TID
	}
	if tids["builder"] == tids["netback"] {
		t.Error("distinct domains share a tid")
	}

	// Timestamps/durations are microseconds: the root spans 10ms-20ms.
	rootEv := complete[0]
	if rootEv.Name != "build-batch[2]" || rootEv.TS != 10_000 || rootEv.Dur == nil || *rootEv.Dur != 10_000 {
		t.Errorf("root event: %+v", rootEv)
	}
	last := complete[len(complete)-1]
	if last.Args["open"] != "true" || *last.Dur != 0 {
		t.Errorf("open span not flagged: %+v", last)
	}

	// A nil tracer still produces a loadable document.
	var nilTr *Tracer
	raw, err = nilTr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("nil-tracer export invalid: %v", err)
	}
}
