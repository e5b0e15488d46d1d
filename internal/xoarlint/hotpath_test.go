package xoarlint

import (
	"strings"
	"testing"
)

// --- hotpath -----------------------------------------------------------------

const hotpathSrc = `package ring

type Req struct{ ID int }

type Ring struct {
	slots  []Req
	broken bool
	notify func()
}

// Escaping composite literal and slice literal: flagged.
//
//xoarlint:hot
func (r *Ring) Escapes() *Req {
	_ = []int{1, 2, 3}
	return &Req{ID: 1}
}

// Append growth: flagged.
//
//xoarlint:hot
func (r *Ring) Grow(q Req) {
	r.slots = append(r.slots, q)
}

// Closure allocation: flagged.
//
//xoarlint:hot
func (r *Ring) Capture(n int) {
	r.notify = func() { _ = n }
}

// Cold fences: the error branch, the broken-flag branch and the
// panic-terminated branch may allocate freely.
//
//xoarlint:hot
func (r *Ring) Fenced(err error, n int) {
	if err != nil {
		_ = append([]int(nil), 1)
	}
	if r.broken {
		_ = make([]int, n)
	}
	if n > len(r.slots) {
		panic("overrun")
	}
	_ = len(r.slots)
}

// Suppressed inside a hot function: justified growth is accepted.
//
//xoarlint:hot
func (r *Ring) Amortized(q Req) {
	//xoarlint:allow(hotpath) backlog growth is bounded and reuses capacity at steady state
	r.slots = append(r.slots, q)
}

// Value-struct literal and in-place work: clean.
//
//xoarlint:hot
func (r *Ring) Clean(i int) Req {
	q := Req{ID: i}
	r.slots[0] = q
	return r.slots[0]
}

// Not annotated: allocations here are invisible unless reached from a root.
func (r *Ring) cold() *Req { return &Req{} }
`

func TestHotpathFlagsAllocationSites(t *testing.T) {
	p := loadSrc(t, "xoar/internal/ring", hotpathSrc)
	diags := diagsOf(t, "hotpath", p)
	wantDiags(t, diags,
		"slice/map composite literal",
		"&composite literal escapes",
		"append may grow",
		"function literal allocates a closure",
	)
}

func TestHotpathColdFences(t *testing.T) {
	// Fenced must contribute nothing: its only allocations sit behind an
	// err != nil check, a broken flag, and a panic terminator.
	p := loadSrc(t, "xoar/internal/ring", hotpathSrc)
	for _, d := range diagsOf(t, "hotpath", p) {
		if d.Pos.Line >= 44 && d.Pos.Line <= 56 {
			t.Errorf("cold-fenced site flagged: %v", d)
		}
	}
}

func TestHotpathSeveredAnnotationsDropRoots(t *testing.T) {
	// Stripping every //xoarlint:hot silences the analyzer entirely — which
	// is exactly why HOTPATH.json is drift-gated: the artifact diff, not a
	// diagnostic, is what catches a severed annotation.
	stripped := strings.ReplaceAll(hotpathSrc, "//xoarlint:hot", "//")
	p := loadSrc(t, "xoar/internal/ring", stripped)
	if diags := diagsOf(t, "hotpath", p); len(diags) != 0 {
		t.Fatalf("severed fixture still diagnosed: %v", diags)
	}
	old := BuildHotPath([]*Package{loadSrc(t, "xoar/internal/ring", hotpathSrc)})
	now := BuildHotPath([]*Package{p})
	if len(now.Roots) != 0 {
		t.Fatalf("stripped fixture still has roots: %+v", now.Roots)
	}
	diff := DiffHotPath(old, now)
	if len(diff) == 0 {
		t.Fatal("DiffHotPath reported no drift for severed annotations")
	}
	for _, line := range diff {
		if !strings.Contains(line, "no longer annotated") {
			t.Errorf("unexpected diff line %q", line)
		}
	}
}

const hotpathCallSrc = `package dev

type sink interface{ Put(v any) }

type Dev struct {
	counter
	s       sink
	counts  map[int]int
	handler func()
	pump    func()
}

// counter is embedded in Dev, so its methods are promoted.
type counter struct {
	n   int
	log []int
}

func (c *counter) bump() { c.n++ }

func (c *counter) record(v int) { c.log = append(c.log, v) }

func (d *Dev) step() { d.counts = nil }

func put(v any) {}

type point struct{ x int }

//xoarlint:hot
func (d *Dev) Boxes(p point, pp *point) {
	put(p)  // non-pointer into an any parameter: flagged
	put(pp) // pointer: free
	put(nil)
}

//xoarlint:hot
func (d *Dev) MapAndString(k int, s string) {
	d.counts[k] = 1          // map assign: flagged
	_ = s + "x"              // concat: flagged
	_ = []byte(s)            // string -> slice: flagged
	_ = string(rune(k))      // non-string -> string: flagged
	_ = point{x: k}          // value literal: free
}

//xoarlint:hot
func (d *Dev) Spawns() {
	go d.step() // goroutine: flagged
}

func (d *Dev) install() {
	d.pump = d.step
}

// Dynamic call through a field bound once to a named method: resolved and
// walked, so step's map-clear shows up as the only finding.
//
//xoarlint:hot
func (d *Dev) Dispatch() {
	if d.pump != nil {
		d.pump()
	}
}

// SetHandler forwards its parameter into the field; a hot call through it
// cannot be resolved and is itself the diagnostic.
func (d *Dev) SetHandler(h func()) { d.handler = h }

//xoarlint:hot
func (d *Dev) Fire() {
	if d.handler != nil {
		d.handler()
	}
}

// A method promoted through the embedded counter resolves to its declaration
// and is walked.
//
//xoarlint:hot
func (d *Dev) Bump() { d.bump() }

// The same resolution reaches an allocation inside the promoted method.
//
//xoarlint:hot
func (d *Dev) Record(v int) { d.record(v) }
`

func TestHotpathBoxingAndBuiltins(t *testing.T) {
	p := loadSrc(t, "xoar/internal/dev", hotpathCallSrc)
	diags := diagsOf(t, "hotpath", p)
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"interface boxing of non-pointer value",
		"map assignment",
		"string concatenation",
		"string to slice conversion",
		"conversion to string",
		"go statement",
		"cannot resolve call through function value xoar/internal/dev.Dev.handler",
		"append may grow its backing array", // inside the promoted counter.record
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing diagnostic %q in:\n%s", want, joined)
		}
	}
	if n := strings.Count(joined, "interface boxing"); n != 1 {
		t.Errorf("boxing flagged %d times, want 1 (pointer and nil args are free)", n)
	}
	if strings.Contains(joined, "Dev.pump") {
		t.Errorf("resolved field call diagnosed as unresolvable:\n%s", joined)
	}
	if strings.Contains(joined, "cannot resolve call to d.") {
		t.Errorf("promoted method call diagnosed as unresolvable:\n%s", joined)
	}
}

func TestHotpathWalksResolvedFieldBindings(t *testing.T) {
	p := loadSrc(t, "xoar/internal/dev", hotpathCallSrc)
	hp := BuildHotPath([]*Package{p})
	var dispatch *HotPathRoot
	for i := range hp.Roots {
		if hp.Roots[i].Root == "xoar/internal/dev.Dev.Dispatch" {
			dispatch = &hp.Roots[i]
		}
	}
	if dispatch == nil {
		t.Fatal("Dispatch root missing from artifact")
	}
	joined := strings.Join(dispatch.Reachable, "\n")
	if !strings.Contains(joined, "xoar/internal/dev.Dev.step") {
		t.Errorf("Dispatch did not walk the field-bound method:\n%s", joined)
	}
	for _, r := range hp.Roots {
		want := map[string]string{
			"xoar/internal/dev.Dev.Bump":   "xoar/internal/dev.counter.bump",
			"xoar/internal/dev.Dev.Record": "xoar/internal/dev.counter.record",
		}[r.Root]
		if want != "" && !strings.Contains(strings.Join(r.Reachable, "\n"), want) {
			t.Errorf("%s did not walk the promoted method %s: %v", r.Root, want, r.Reachable)
		}
	}
}

func TestHotpathAnnotationGrammar(t *testing.T) {
	src := `package ring

//xoarlint:hot bench=BenchmarkMicro_X allocs=2
func Budgeted() {}

//xoarlint:hot turbo=yes
func Bad() {}
`
	p := loadSrc(t, "xoar/internal/ring", src)
	diags := diagsOf(t, "hotpath", p)
	wantDiags(t, diags, `unknown token "turbo=yes"`)
	hp := BuildHotPath([]*Package{p})
	var budgeted *HotPathRoot
	for i := range hp.Roots {
		if hp.Roots[i].Root == "xoar/internal/ring.Budgeted" {
			budgeted = &hp.Roots[i]
		}
	}
	if budgeted == nil {
		t.Fatal("Budgeted root missing")
	}
	if budgeted.Bench != "BenchmarkMicro_X" || budgeted.AllocsPerOp != 2 {
		t.Errorf("parsed bench=%q allocs=%d, want BenchmarkMicro_X/2", budgeted.Bench, budgeted.AllocsPerOp)
	}
}

func TestHotpathStdlibPolicy(t *testing.T) {
	src := `package dev

import (
	"fmt"
	"sort"
	"sync/atomic"
)

var n atomic.Int64

//xoarlint:hot
func Mixed(xs []float64, v float64) {
	n.Add(1)                     // sync/atomic: free
	_ = sort.SearchFloat64s(xs, v) // sort.Search*: free
	fmt.Println(v)               // fmt: flagged
	sort.Float64s(xs)            // unproven stdlib: flagged as unprovable
}
`
	p := loadSrc(t, "xoar/internal/dev", src)
	diags := diagsOf(t, "hotpath", p)
	wantDiags(t, diags,
		"call into fmt allocates",
		"cannot prove sort.Float64s allocation-free",
	)
}

func TestHotpathDecodeRoundTrip(t *testing.T) {
	p := loadSrc(t, "xoar/internal/ring", hotpathSrc)
	hp := BuildHotPath([]*Package{p})
	back, err := DecodeHotPath(hp.EncodeJSON())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Roots) != len(hp.Roots) {
		t.Fatalf("round trip lost roots: %d -> %d", len(hp.Roots), len(back.Roots))
	}
	if diff := DiffHotPath(hp, back); len(diff) != 0 {
		t.Fatalf("round trip drifted: %v", diff)
	}
}
