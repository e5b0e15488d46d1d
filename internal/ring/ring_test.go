package ring

import (
	"errors"
	"testing"
	"testing/quick"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

type req struct{ id int }
type resp struct{ id int }

func TestRequestResponseRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 8)
	var got []int
	env.Spawn("backend", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			rq, err := r.PopRequest(p)
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(sim.Millisecond) // service time
			r.PushResponse(resp{id: rq.id})
		}
	})
	env.Spawn("frontend", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := r.PushRequest(p, req{id: i}); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 3; i++ {
			rs, err := r.PopResponse(p)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, rs.id)
		}
	})
	env.RunAll()
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("responses = %v", got)
	}
	if r.used != 0 {
		t.Fatalf("inflight = %d", r.used)
	}
}

func TestSlotDiscipline(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 2)
	env.Spawn("test", func(p *sim.Proc) {
		if !r.TryPushRequest(req{1}) || !r.TryPushRequest(req{2}) {
			t.Error("pushes failed")
		}
		if r.TryPushRequest(req{3}) {
			t.Error("push into full ring succeeded")
		}
		if !r.Full() {
			t.Error("ring should be full")
		}
		// Backend pops a request: slot is still held (response pending).
		if _, ok := r.TryPopRequest(); !ok {
			t.Error("pop failed")
		}
		if r.TryPushRequest(req{3}) {
			t.Error("slot freed too early: response not yet consumed")
		}
		r.PushResponse(resp{1})
		if _, ok := r.TryPopResponse(); !ok {
			t.Error("pop response failed")
		}
		// Now one slot is free.
		if !r.TryPushRequest(req{3}) {
			t.Error("push after slot free failed")
		}
	})
	env.RunAll()
}

func TestPushBlocksUntilSpace(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 1)
	var pushedAt sim.Time
	env.Spawn("frontend", func(p *sim.Proc) {
		r.PushRequest(p, req{1})
		if err := r.PushRequest(p, req{2}); err != nil { // blocks
			t.Error(err)
		}
		pushedAt = p.Now()
	})
	env.Spawn("backend", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		rq, _ := r.TryPopRequest()
		r.PushResponse(resp{rq.id})
	})
	env.Spawn("reaper", func(p *sim.Proc) {
		r.PopResponse(p)
	})
	env.RunAll()
	if pushedAt != sim.Time(10*sim.Millisecond) {
		t.Fatalf("second push completed at %v", pushedAt)
	}
}

// Under req_event/rsp_event, the first push after ring init notifies (the
// event indices start armed at 1); subsequent pushes are suppressed until
// the consumer re-arms by blocking in PopRequest/PopResponse. TryPop does
// not arm — pollers get no notifies.
func TestNotifyHooks(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	backNotified, frontNotified := 0, 0
	r.NotifyBack = func() { backNotified++ }
	r.NotifyFront = func() { frontNotified++ }
	env.Spawn("test", func(p *sim.Proc) {
		r.TryPushRequest(req{1}) // crosses req_event=1: notify
		r.PushRequest(p, req{2}) // consumer never re-armed: suppressed
		r.TryPopRequest()
		r.TryPopRequest()
		r.PushResponse(resp{1}) // crosses rsp_event=1: notify
		r.PushResponse(resp{2}) // suppressed
	})
	env.RunAll()
	if backNotified != 1 || frontNotified != 1 {
		t.Fatalf("notifies back=%d front=%d", backNotified, frontNotified)
	}
	st := r.Stats()
	if st.NotifiesToBack != 1 || st.SuppressedToBack != 1 ||
		st.NotifiesToFront != 1 || st.SuppressedToFront != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// AlwaysNotify restores the per-descriptor baseline: a notify per push.
func TestAlwaysNotifyAblation(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	r.AlwaysNotify = true
	backNotified, frontNotified := 0, 0
	r.NotifyBack = func() { backNotified++ }
	r.NotifyFront = func() { frontNotified++ }
	env.Spawn("test", func(p *sim.Proc) {
		r.TryPushRequest(req{1})
		r.PushRequest(p, req{2})
		r.TryPopRequest()
		r.TryPopRequest()
		r.PushResponse(resp{1})
		r.PushResponse(resp{2})
	})
	env.RunAll()
	if backNotified != 2 || frontNotified != 2 {
		t.Fatalf("notifies back=%d front=%d", backNotified, frontNotified)
	}
}

// A consumer that blocks in PopRequest arms req_event on its way to sleep
// (RING_FINAL_CHECK_FOR_REQUESTS), so the producer's wake-up push notifies —
// and a racing push between check and sleep is never lost.
func TestFinalCheckArmsNotify(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	backNotified := 0
	r.NotifyBack = func() { backNotified++ }
	env.Spawn("backend", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := r.PopRequest(p); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Spawn("frontend", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(sim.Millisecond) // let the backend drain and re-arm
			r.TryPushRequest(req{i})
		}
	})
	env.RunAll()
	// Every push found the backend asleep and armed: all three notify.
	if backNotified != 3 {
		t.Fatalf("backNotified = %d", backNotified)
	}
}

// Batch pushes make one notify decision for the whole burst.
func TestBatchPushSingleNotify(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 8)
	backNotified, frontNotified := 0, 0
	r.NotifyBack = func() { backNotified++ }
	r.NotifyFront = func() { frontNotified++ }
	env.Spawn("test", func(p *sim.Proc) {
		if n := r.TryPushRequestBatch([]req{{1}, {2}, {3}, {4}}); n != 4 {
			t.Errorf("batch push = %d", n)
		}
		buf := make([]req, 8)
		if n := r.TryPopRequestBatch(buf); n != 4 || buf[0].id != 1 || buf[3].id != 4 {
			t.Errorf("batch pop = %d %v", n, buf[:n])
		}
		if err := r.PushResponseBatch([]resp{{1}, {2}, {3}, {4}}); err != nil {
			t.Error(err)
		}
		rbuf := make([]resp, 8)
		if n := r.TryPopResponseBatch(rbuf); n != 4 {
			t.Errorf("batch pop responses = %d", n)
		}
	})
	env.RunAll()
	if backNotified != 1 || frontNotified != 1 {
		t.Fatalf("notifies back=%d front=%d", backNotified, frontNotified)
	}
	if r.used != 0 {
		t.Fatalf("inflight = %d", r.used)
	}
}

// PushRequestBatch larger than the ring blocks and completes as slots free;
// PopRequestBatch drains whole bursts per wakeup.
func TestBatchBlockingRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	const total = 10
	var served int
	env.Spawn("backend", func(p *sim.Proc) {
		buf := make([]req, 4)
		rsp := make([]resp, 4)
		for served < total {
			n, err := r.PopRequestBatch(p, buf)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				rsp[i] = resp{buf[i].id}
			}
			if err := r.PushResponseBatch(rsp[:n]); err != nil {
				t.Error(err)
				return
			}
			served += n
		}
	})
	env.Spawn("frontend", func(p *sim.Proc) {
		reqs := make([]req, total)
		for i := range reqs {
			reqs[i] = req{i}
		}
		env.Spawn("reaper", func(p2 *sim.Proc) {
			buf := make([]resp, 4)
			got := 0
			for got < total {
				n, err := r.PopResponseBatch(p2, buf)
				if err != nil {
					t.Error(err)
					return
				}
				got += n
			}
		})
		if err := r.PushRequestBatch(p, reqs); err != nil {
			t.Error(err)
		}
	})
	env.RunAll()
	if served != total {
		t.Fatalf("served = %d", served)
	}
	if r.used != 0 {
		t.Fatalf("inflight = %d", r.used)
	}
}

func TestBreakWakesAndFailsAll(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 1)
	var popErr, pushErr error
	env.Spawn("blockedPop", func(p *sim.Proc) {
		_, popErr = r.PopRequest(p)
	})
	env.Spawn("filler", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		// Fill the ring so the next push blocks. The queued request is
		// consumed by blockedPop, but its slot stays held.
		r.TryPushRequest(req{0})
		r.TryPushRequest(req{0})
	})
	env.Spawn("blockedPush", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		pushErr = r.PushRequest(p, req{1})
	})
	env.Spawn("breaker", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		r.Break()
	})
	env.RunAll()
	// blockedPop actually received the filler's request, so it may have
	// succeeded; the blocked push must fail.
	if pushErr == nil || !errors.Is(pushErr, xtypes.ErrShutdown) {
		t.Fatalf("push on broken ring: %v", pushErr)
	}
	_ = popErr
	if !r.Broken() {
		t.Fatal("ring not broken")
	}
	if _, ok := r.TryPopRequest(); ok {
		t.Fatal("pop on broken ring succeeded")
	}
}

func TestResetRestoresService(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 2)
	env.Spawn("test", func(p *sim.Proc) {
		r.TryPushRequest(req{1})
		r.Break()
		r.Reset()
		if r.Broken() || r.used != 0 {
			t.Error("reset did not clear state")
		}
		if !r.TryPushRequest(req{2}) {
			t.Error("push after reset failed")
		}
		rq, ok := r.TryPopRequest()
		if !ok || rq.id != 2 {
			t.Errorf("pop after reset = %+v %v", rq, ok)
		}
	})
	env.RunAll()
}

// Property: for any interleaving of pushes and pops, in-flight slot count
// equals pushes minus consumed responses and never exceeds capacity.
func TestSlotAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv(1)
		r := New[req, resp](env, 4)
		pushed, popped, responded, consumed := 0, 0, 0, 0
		okAll := true
		env.Spawn("driver", func(p *sim.Proc) {
			for _, op := range ops {
				switch op % 4 {
				case 0:
					if r.TryPushRequest(req{pushed}) {
						pushed++
					}
				case 1:
					if _, ok := r.TryPopRequest(); ok {
						popped++
					}
				case 2:
					if responded < popped {
						r.PushResponse(resp{responded})
						responded++
					}
				case 3:
					if _, ok := r.TryPopResponse(); ok {
						consumed++
					}
				}
				if r.used != pushed-consumed || r.used > r.slots {
					okAll = false
					return
				}
			}
		})
		env.RunAll()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: every push/pop variant — try, blocking, and batch,
// both directions — must refuse service on a broken ring. TryPopResponse
// historically skipped the broken check and let a frontend consume
// responses (freeing slots) on a ring mid-microreboot.
func TestBrokenRingRefusesAllVariants(t *testing.T) {
	cases := []struct {
		name string
		op   func(p *sim.Proc, r *Ring[req, resp]) bool // true = op succeeded
	}{
		{"TryPushRequest", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.TryPushRequest(req{9})
		}},
		{"PushRequest", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.PushRequest(p, req{9}) == nil
		}},
		{"TryPushRequestBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.TryPushRequestBatch([]req{{9}}) > 0
		}},
		{"PushRequestBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.PushRequestBatch(p, []req{{9}}) == nil
		}},
		{"TryPopRequest", func(p *sim.Proc, r *Ring[req, resp]) bool {
			_, ok := r.TryPopRequest()
			return ok
		}},
		{"PopRequest", func(p *sim.Proc, r *Ring[req, resp]) bool {
			_, err := r.PopRequest(p)
			return err == nil
		}},
		{"TryPopRequestBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.TryPopRequestBatch(make([]req, 2)) > 0
		}},
		{"PopRequestBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			n, err := r.PopRequestBatch(p, make([]req, 2))
			return err == nil && n > 0
		}},
		{"PushResponse", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.PushResponse(resp{9}) == nil
		}},
		{"PushResponseBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.PushResponseBatch([]resp{{9}}) == nil
		}},
		{"TryPopResponse", func(p *sim.Proc, r *Ring[req, resp]) bool {
			_, ok := r.TryPopResponse()
			return ok
		}},
		{"PopResponse", func(p *sim.Proc, r *Ring[req, resp]) bool {
			_, err := r.PopResponse(p)
			return err == nil
		}},
		{"TryPopResponseBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			return r.TryPopResponseBatch(make([]resp, 2)) > 0
		}},
		{"PopResponseBatch", func(p *sim.Proc, r *Ring[req, resp]) bool {
			n, err := r.PopResponseBatch(p, make([]resp, 2))
			return err == nil && n > 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			r := New[req, resp](env, 4)
			env.Spawn("test", func(p *sim.Proc) {
				// Queue work in both directions so the ops would succeed
				// were the ring healthy, then break it.
				r.TryPushRequest(req{1})
				r.TryPushRequest(req{2})
				r.TryPopRequest()
				r.PushResponse(resp{1})
				before := r.used
				r.Break()
				if tc.op(p, r) {
					t.Errorf("%s succeeded on broken ring", tc.name)
				}
				if r.used != before {
					t.Errorf("%s changed slot accounting on broken ring: %d -> %d",
						tc.name, before, r.used)
				}
			})
			env.RunAll()
		})
	}
}

// Stats track descriptor totals across pushes, pops, and Reset (counters
// survive a microreboot so restart-spanning experiments keep totals).
func TestStatsAccounting(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 4)
	env.Spawn("test", func(p *sim.Proc) {
		r.TryPushRequestBatch([]req{{1}, {2}, {3}})
		buf := make([]req, 4)
		r.TryPopRequestBatch(buf)
		r.PushResponseBatch([]resp{{1}, {2}, {3}})
		rbuf := make([]resp, 4)
		r.TryPopResponseBatch(rbuf)
		r.Break()
		r.Reset()
		r.TryPushRequest(req{4})
	})
	env.RunAll()
	st := r.Stats()
	if st.ReqPushed != 4 || st.ReqPopped != 3 || st.RespPushed != 3 || st.RespPopped != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHotRootsAllocationFree binds the ring's hot roots that no benchmark
// measures to their HOTPATH.json budget of 0 allocs/op. Each case is one
// full round trip, so the ring returns to the same state; the root under
// test stands in for its Try* sibling, which BenchmarkMicro_RingBatchPop
// already holds at zero. The blocking variants find their data ready, so
// they never park the proc that runs them.
func TestHotRootsAllocationFree(t *testing.T) {
	env := sim.NewEnv(1)
	r := New[req, resp](env, 8)
	reqs, rbuf := make([]req, 8), make([]req, 8)
	resps, sbuf := make([]resp, 8), make([]resp, 8)
	check := func(name string, ok bool) {
		if !ok {
			t.Errorf("%s: round trip did not complete", name)
		}
	}
	done := false
	env.Spawn("hot", func(p *sim.Proc) {
		for _, root := range []struct {
			name string
			op   func()
		}{
			{"PushRequestBatch", func() {
				check("PushRequestBatch", r.PushRequestBatch(p, reqs) == nil && r.TryPopRequestBatch(rbuf) == 8 &&
					r.PushResponseBatch(resps) == nil && r.TryPopResponseBatch(sbuf) == 8)
			}},
			{"PopRequestBatch", func() {
				r.TryPushRequestBatch(reqs)
				n, err := r.PopRequestBatch(p, rbuf)
				check("PopRequestBatch", err == nil && n == 8 && r.PushResponseBatch(resps) == nil && r.TryPopResponseBatch(sbuf) == 8)
			}},
			{"PushResponse", func() {
				r.TryPushRequestBatch(reqs[:1])
				r.TryPopRequestBatch(rbuf)
				check("PushResponse", r.PushResponse(resp{}) == nil && r.TryPopResponseBatch(sbuf) == 1)
			}},
			{"PopResponse", func() {
				r.TryPushRequestBatch(reqs[:1])
				r.TryPopRequestBatch(rbuf)
				r.PushResponse(resp{})
				_, err := r.PopResponse(p)
				check("PopResponse", err == nil)
			}},
			{"TryPopResponse", func() {
				r.TryPushRequestBatch(reqs[:1])
				r.TryPopRequestBatch(rbuf)
				r.PushResponse(resp{})
				_, ok := r.TryPopResponse()
				check("TryPopResponse", ok)
			}},
			{"PopResponseBatch", func() {
				r.TryPushRequestBatch(reqs)
				r.TryPopRequestBatch(rbuf)
				r.PushResponseBatch(resps)
				n, err := r.PopResponseBatch(p, sbuf)
				check("PopResponseBatch", err == nil && n == 8)
			}},
		} {
			for i := 0; i < 10; i++ {
				root.op()
			}
			if n := testing.AllocsPerRun(100, root.op); n != 0 {
				t.Errorf("Ring.%s: %v allocs/op, HOTPATH.json budget is 0", root.name, n)
			}
		}
		done = true
	})
	env.RunAll()
	if !done {
		t.Fatal("a round trip blocked the proc running it")
	}
}
