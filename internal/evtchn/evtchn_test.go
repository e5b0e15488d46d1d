package evtchn

import (
	"errors"
	"testing"
	"testing/quick"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

func newTable() (*sim.Env, *Table) {
	env := sim.NewEnv(1)
	t := NewTable(env)
	t.AddDomain(1)
	t.AddDomain(2)
	return env, t
}

// pair builds a connected interdomain channel 1<->2 and returns both ports.
func pair(t *testing.T, tbl *Table) (p1, p2 xtypes.Port) {
	t.Helper()
	p2, err := tbl.AllocUnbound(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1, err = tbl.BindInterdomain(1, 2, p2)
	if err != nil {
		t.Fatal(err)
	}
	return p1, p2
}

func TestBindHandshake(t *testing.T) {
	_, tbl := newTable()
	p1, p2 := pair(t, tbl)
	rd, rp, err := tbl.peer(1, p1)
	if err != nil || rd != 2 || rp != p2 {
		t.Fatalf("peer(1) = %v:%d, %v", rd, rp, err)
	}
	rd, rp, err = tbl.peer(2, p2)
	if err != nil || rd != 1 || rp != p1 {
		t.Fatalf("peer(2) = %v:%d, %v", rd, rp, err)
	}
}

func TestBindReservedForOtherDomain(t *testing.T) {
	_, tbl := newTable()
	tbl.AddDomain(3)
	p2, _ := tbl.AllocUnbound(2, 1) // reserved for dom1
	if _, err := tbl.BindInterdomain(3, 2, p2); !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("foreign bind: %v", err)
	}
}

func TestDoubleBindRefused(t *testing.T) {
	_, tbl := newTable()
	tbl.AddDomain(3)
	p2, _ := tbl.AllocUnbound(2, 1)
	if _, err := tbl.BindInterdomain(1, 2, p2); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.BindInterdomain(1, 2, p2); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("double bind: %v", err)
	}
}

func TestNotifyWakesWaiter(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	var wokeAt sim.Time
	env.Spawn("waiter", func(p *sim.Proc) {
		if !tbl.wait(p, 2, p2) {
			t.Error("wait failed")
		}
		wokeAt = p.Now()
	})
	env.Spawn("notifier", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		if err := tbl.Notify(1, p1); err != nil {
			t.Error(err)
		}
	})
	env.RunAll()
	if wokeAt != sim.Time(5*sim.Millisecond) {
		t.Fatalf("woke at %v", wokeAt)
	}
}

func TestPendingConsumedByWait(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	env.Spawn("test", func(p *sim.Proc) {
		tbl.Notify(1, p1)
		if ok, _ := tbl.pending(2, p2); !ok {
			t.Error("not pending after notify")
		}
		if !tbl.wait(p, 2, p2) {
			t.Error("wait failed")
		}
		if ok, _ := tbl.pending(2, p2); ok {
			t.Error("still pending after wait")
		}
	})
	env.RunAll()
}

func TestHandlerUpcall(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	calls := 0
	tbl.SetHandler(2, p2, func() { calls++ })
	env.Spawn("notifier", func(p *sim.Proc) {
		tbl.Notify(1, p1)
		p.Sleep(sim.Millisecond)
		tbl.Notify(1, p1)
	})
	env.RunAll()
	if calls != 2 {
		t.Fatalf("handler calls = %d", calls)
	}
}

func TestMaskDefersDelivery(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	calls := 0
	tbl.SetHandler(2, p2, func() { calls++ })
	env.Spawn("test", func(p *sim.Proc) {
		tbl.mask(2, p2)
		tbl.Notify(1, p1)
		p.Sleep(sim.Millisecond)
		if calls != 0 {
			t.Error("handler ran while masked")
		}
		if ok, _ := tbl.pending(2, p2); !ok {
			t.Error("pending bit lost while masked")
		}
		tbl.unmask(2, p2)
	})
	env.RunAll()
	if calls != 1 {
		t.Fatalf("handler calls after unmask = %d", calls)
	}
}

func TestVIRQDelivery(t *testing.T) {
	env, tbl := newTable()
	port, err := tbl.BindVIRQ(1, xtypes.VIRQConsole)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.BindVIRQ(1, xtypes.VIRQConsole); !errors.Is(err, xtypes.ErrInUse) {
		t.Fatalf("double virq bind: %v", err)
	}
	got := 0
	tbl.SetHandler(1, port, func() { got++ })
	env.Spawn("hv", func(p *sim.Proc) {
		tbl.RaiseVIRQ(1, xtypes.VIRQConsole)
		tbl.RaiseVIRQ(1, xtypes.VIRQTimer) // unbound: dropped
		tbl.RaiseVIRQ(99, xtypes.VIRQConsole)
	})
	env.RunAll()
	if got != 1 {
		t.Fatalf("virq deliveries = %d", got)
	}
}

func TestCloseBreaksPeer(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	var waiterResult bool
	var waiterDone bool
	env.Spawn("waiter", func(p *sim.Proc) {
		waiterResult = tbl.wait(p, 2, p2)
		// After the break, the endpoint reverts to unbound: a second wait on
		// a never-signalled unbound port would block forever, so instead just
		// check Notify now fails from side 2.
		waiterDone = true
	})
	env.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		tbl.Close(1, p1)
		// Port 2 reverted to unbound; notifying through it must error.
		if err := tbl.Notify(2, p2); !errors.Is(err, xtypes.ErrBadPort) {
			t.Errorf("notify after peer close: %v", err)
		}
		// The broken endpoint can be rebound by the original peer domain,
		// which is how reconnection after a microreboot works.
		if _, err := tbl.BindInterdomain(1, 2, p2); err != nil {
			t.Errorf("rebind after break: %v", err)
		}
	})
	env.Run(sim.Time(sim.Second))
	if waiterDone && waiterResult {
		t.Fatal("waiter saw a pending event from a close")
	}
	env.Shutdown()
}

func TestRemoveDomainClosesEverything(t *testing.T) {
	_, tbl := newTable()
	p1, _ := pair(t, tbl)
	tbl.RemoveDomain(2)
	// The surviving endpoint reverts to unbound; notifying through it fails
	// just as EVTCHNOP_send on an unbound port returns EINVAL in Xen.
	if err := tbl.Notify(1, p1); !errors.Is(err, xtypes.ErrBadPort) {
		t.Fatalf("notify to dead peer: %v", err)
	}
	if _, err := tbl.AllocUnbound(2, 1); !errors.Is(err, xtypes.ErrNoDomain) {
		t.Fatalf("alloc on removed domain: %v", err)
	}
}

func TestWaitTimeout(t *testing.T) {
	env, tbl := newTable()
	_, p2 := pair(t, tbl)
	var ok bool
	var at sim.Time
	env.Spawn("waiter", func(p *sim.Proc) {
		ok = tbl.waitTimeout(p, 2, p2, 10*sim.Millisecond)
		at = p.Now()
	})
	env.RunAll()
	if ok || at != sim.Time(10*sim.Millisecond) {
		t.Fatalf("timeout wait: ok=%v at=%v", ok, at)
	}
}

func TestConnectionsEnumeration(t *testing.T) {
	_, tbl := newTable()
	tbl.AddDomain(3)
	pair(t, tbl)
	p3u, _ := tbl.AllocUnbound(3, 1)
	if _, err := tbl.BindInterdomain(1, 3, p3u); err != nil {
		t.Fatal(err)
	}
	conns := tbl.connections(1)
	if len(conns) != 2 {
		t.Fatalf("connections = %v", conns)
	}
}

func TestNotifyCount(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	env.Spawn("n", func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			tbl.Notify(1, p1)
		}
	})
	env.RunAll()
	if n := tbl.notifyCount(2, p2); n != 7 {
		t.Fatalf("notify count = %d", n)
	}
}

// Property: for any interleaving of alloc/bind/notify/close operations, a
// delivered event implies a live interdomain pair, and closing always leaves
// both endpoints unusable for notification.
func TestEvtchnLifecycleProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv(1)
		tbl := NewTable(env)
		tbl.AddDomain(1)
		tbl.AddDomain(2)
		type pair struct{ p1, p2 xtypes.Port }
		var unbound []xtypes.Port
		var pairs []pair
		okAll := true
		env.Spawn("driver", func(p *sim.Proc) {
			for _, op := range ops {
				switch op % 4 {
				case 0:
					if port, err := tbl.AllocUnbound(2, 1); err == nil {
						unbound = append(unbound, port)
					}
				case 1:
					if len(unbound) > 0 {
						p2 := unbound[0]
						unbound = unbound[1:]
						p1, err := tbl.BindInterdomain(1, 2, p2)
						if err != nil {
							okAll = false
							return
						}
						pairs = append(pairs, pair{p1, p2})
					}
				case 2:
					if len(pairs) > 0 {
						pr := pairs[0]
						if err := tbl.Notify(1, pr.p1); err != nil {
							okAll = false
							return
						}
						pending, err := tbl.pending(2, pr.p2)
						if err != nil || !pending {
							okAll = false
							return
						}
						// Consume so later checks are clean.
						if !tbl.wait(p, 2, pr.p2) {
							okAll = false
							return
						}
					}
				case 3:
					if len(pairs) > 0 {
						pr := pairs[0]
						pairs = pairs[1:]
						tbl.Close(1, pr.p1)
						// The peer reverted to unbound: notify must fail.
						if err := tbl.Notify(2, pr.p2); err == nil {
							okAll = false
							return
						}
					}
				}
			}
		})
		env.RunAll()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: close must scrub the surviving endpoint's pending
// bit and stale remote port. Pre-fix, an event notified just before the
// peer closed survived the teardown and surfaced as a phantom event on the
// rebound connection after a microreboot.
func TestCloseClearsStalePeerState(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	env.Spawn("test", func(p *sim.Proc) {
		tbl.Notify(1, p1) // event in flight, never consumed
		tbl.Close(1, p1)  // backend dies mid-event (microreboot)
		if ok, _ := tbl.pending(2, p2); ok {
			t.Error("pending bit survived close: phantom event")
			return
		}
		// Reconnect: dom1 rebinds to the surviving unbound endpoint.
		np1, err := tbl.BindInterdomain(1, 2, p2)
		if err != nil {
			t.Error(err)
			return
		}
		// The fresh connection must not observe an event it never sent.
		if tbl.waitTimeout(p, 2, p2, 5*sim.Millisecond) {
			t.Error("phantom event delivered on rebound channel")
			return
		}
		// And real traffic on the new binding still flows.
		if err := tbl.Notify(1, np1); err != nil {
			t.Error(err)
			return
		}
		if ok, _ := tbl.pending(2, p2); !ok {
			t.Error("real notify lost after rebind")
		}
	})
	env.RunAll()
}

// Satellite regression: one event arrival is one count, masked or not.
// Pre-fix, deliver counted when it set the pending bit under mask and then
// Unmask ran deliver again for the same event, double-counting it.
func TestNotifyCountMaskedCountsOnce(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	env.Spawn("test", func(p *sim.Proc) {
		tbl.mask(2, p2)
		tbl.Notify(1, p1) // arrives under mask: counts once
		if n := tbl.notifyCount(2, p2); n != 1 {
			t.Errorf("count under mask = %d", n)
		}
		tbl.unmask(2, p2) // redelivery of the deferred event, not a new one
		if n := tbl.notifyCount(2, p2); n != 1 {
			t.Errorf("count after unmask = %d", n)
		}
		if !tbl.wait(p, 2, p2) {
			t.Error("deferred event lost")
		}
		// Interleave unmasked and masked notifies: three arrivals total.
		tbl.Notify(1, p1)
		tbl.mask(2, p2)
		tbl.Notify(1, p1)
		tbl.unmask(2, p2)
		if n := tbl.notifyCount(2, p2); n != 3 {
			t.Errorf("count after mask/notify/unmask sequence = %d", n)
		}
		if !tbl.wait(p, 2, p2) {
			t.Error("event lost after sequence")
		}
	})
	env.RunAll()
}

// WaitTimeout with a deadline exactly at Now must not block: it consumes an
// already-pending event or fails immediately.
func TestWaitTimeoutZeroDeadline(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	env.Spawn("test", func(p *sim.Proc) {
		if tbl.waitTimeout(p, 2, p2, 0) {
			t.Error("zero-deadline wait returned true with no event")
		}
		if p.Now() != 0 {
			t.Errorf("zero-deadline wait blocked until %v", p.Now())
		}
		tbl.Notify(1, p1)
		if !tbl.waitTimeout(p, 2, p2, 0) {
			t.Error("pending event not consumed at zero deadline")
		}
	})
	env.RunAll()
}

// Closing the port while a WaitTimeout deadline timer is armed must wake the
// waiter with false at close time, not strand it until the deadline.
func TestWaitTimeoutPortClosedWhileArmed(t *testing.T) {
	env, tbl := newTable()
	_, p2 := pair(t, tbl)
	var ok, done bool
	var at sim.Time
	env.Spawn("waiter", func(p *sim.Proc) {
		ok = tbl.waitTimeout(p, 2, p2, 100*sim.Millisecond)
		at = p.Now()
		done = true
	})
	env.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		tbl.Close(2, p2)
	})
	env.RunAll()
	if !done || ok {
		t.Fatalf("wait after close: done=%v ok=%v", done, ok)
	}
	if at != sim.Time(5*sim.Millisecond) {
		t.Fatalf("waiter returned at %v, want the close time", at)
	}
}

// Two waiters on one port: a single event wakes both (broadcast), exactly
// one consumes it, and the spuriously-woken loser re-sleeps and times out
// at its own deadline rather than returning a false success.
func TestWaitTimeoutSpuriousWakeupSecondWaiter(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	results := make([]bool, 2)
	times := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("waiter", func(p *sim.Proc) {
			results[i] = tbl.waitTimeout(p, 2, p2, 20*sim.Millisecond)
			times[i] = p.Now()
		})
	}
	env.Spawn("notifier", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		tbl.Notify(1, p1)
	})
	env.RunAll()
	if results[0] == results[1] {
		t.Fatalf("exactly one waiter must consume the event: %v", results)
	}
	for i := 0; i < 2; i++ {
		if results[i] && times[i] != sim.Time(5*sim.Millisecond) {
			t.Fatalf("winner returned at %v", times[i])
		}
		if !results[i] && times[i] != sim.Time(20*sim.Millisecond) {
			t.Fatalf("loser returned at %v, want its deadline", times[i])
		}
	}
}

// TestDeliveryRootsAllocationFree binds Notify and RaiseVIRQ to their
// HOTPATH.json budget of 0 allocs/op: each delivery marks the port pending,
// posts the upcall bound at SetHandler time, and the dispatcher runs it.
func TestDeliveryRootsAllocationFree(t *testing.T) {
	env, tbl := newTable()
	p1, p2 := pair(t, tbl)
	vp, err := tbl.BindVIRQ(1, xtypes.VIRQTimer)
	if err != nil {
		t.Fatal(err)
	}
	upcalls := 0
	for _, h := range []struct {
		dom  xtypes.DomID
		port xtypes.Port
	}{{2, p2}, {1, vp}} {
		if err := tbl.SetHandler(h.dom, h.port, func() { upcalls++ }); err != nil {
			t.Fatal(err)
		}
	}
	for _, root := range []struct {
		name string
		op   func()
	}{
		{"Table.Notify", func() {
			if err := tbl.Notify(1, p1); err != nil {
				t.Fatal(err)
			}
			env.RunAll()
		}},
		{"Table.RaiseVIRQ", func() {
			tbl.RaiseVIRQ(1, xtypes.VIRQTimer)
			env.RunAll()
		}},
	} {
		before := upcalls
		for i := 0; i < 10; i++ {
			root.op()
		}
		if upcalls == before {
			t.Fatalf("%s: handler never ran", root.name)
		}
		if n := testing.AllocsPerRun(100, root.op); n != 0 {
			t.Errorf("%s: %v allocs/op, HOTPATH.json budget is 0", root.name, n)
		}
	}
}
