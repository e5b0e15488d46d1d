package sim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
)

// schedulerOrderHash is the FNV-64a hash of the full trace of
// runMixedModel. Every scheduler change must reproduce it exactly: the
// reproduction's figures are functions of this order, so a dispatcher that
// pops the same events in a different interleaving changes the results.
const (
	schedulerOrderHash   uint64 = 0x83a4100b6b47db5
	schedulerOrderEvents        = 200
)

// runMixedModel drives one model through every scheduler path — sleeps and
// yields, resource contention, channel and signal wakeups, timers with and
// without cancellation, kills of sleeping processes, a process exiting
// mid-slice, and a Run deadline that splits an instant — and returns the
// FNV-64a hash of its trace plus the number of trace events.
func runMixedModel() (uint64, int) {
	h := fnv.New64a()
	n := 0
	env := NewEnv(3)
	env.setTrace(func(ev TraceEvent) {
		n++
		fmt.Fprintf(h, "%d %s %s\n", ev.At, ev.Kind, ev.Proc)
	})

	// Sleep/Yield ping-pong between two processes at equal instants.
	for _, name := range []string{"ping", "pong"} {
		env.Spawn(name, func(p *Proc) {
			for i := 0; i < 20; i++ {
				if i%3 == 0 {
					p.Sleep(Duration(i) * Microsecond)
				} else {
					p.Yield()
				}
			}
		})
	}

	// Three users contend for a one-slot CPU in chunks.
	cpu := NewResource(env, 1)
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn(fmt.Sprintf("vcpu%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * 100 * Microsecond)
			cpu.UseChunked(p, Duration(3+i)*Millisecond, Millisecond)
		})
	}

	// A channel with a blocking receiver, a timing-out receiver, and a
	// sender that posts and arms (then cancels) timers along the way.
	ch := NewChan[int](env)
	env.Spawn("recv", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				return
			}
			p.Sleep(Duration(v) * 50 * Microsecond)
		}
	})
	env.Spawn("recv-timeout", func(p *Proc) {
		for i := 0; i < 6; i++ {
			if _, ok := ch.RecvTimeout(p, 700*Microsecond); !ok {
				p.Yield()
			}
		}
	})
	env.Spawn("send", func(p *Proc) {
		for i := 1; i <= 12; i++ {
			ch.Send(i)
			if i%4 == 0 {
				cancel := env.After(Duration(i)*Microsecond, func() {})
				cancel()
				env.After(Duration(i)*Microsecond, func() {})
				env.Post(func() {})
			}
			p.Sleep(Duration(i%5) * 200 * Microsecond)
		}
		ch.Close()
	})

	// Signal broadcast to a set of waiters, two of which are killed while
	// asleep before the broadcast arrives.
	sig := NewSignal(env)
	var sleepers []*Proc
	for i := 0; i < 4; i++ {
		env.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			sig.Wait(p)
			p.Sleep(Microsecond)
		})
		sleepers = append(sleepers, env.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			p.Sleep(Second)
		}))
	}
	env.Spawn("killer", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		sleepers[1].Kill()
		sleepers[3].Kill()
		p.Sleep(Millisecond)
		sig.Broadcast()
	})

	// A process that exits mid-slice: others are queued at the same
	// instant when it returns.
	env.Spawn("short", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		env.Post(func() {})
		env.After(0, func() {})
	})

	// A callback that spawns and kills from outside any process.
	env.After(4*Millisecond, func() {
		q := env.Spawn("from-callback", func(p *Proc) { p.Sleep(Millisecond) })
		env.Post(func() { q.Kill() })
	})

	// Split the 5 ms instant: Run stops at it, the driver then adds work
	// at the same instant, and the next Run resumes it.
	env.Run(Time(5 * Millisecond))
	env.Spawn("late", func(p *Proc) {
		p.Yield()
		sig.Wait(p) // never broadcast again: parked until Shutdown
	})
	env.Post(func() {})
	env.Run(Time(20 * Millisecond))

	// Processes parked forever: reaped by Shutdown.
	env.Spawn("parked-recv", func(p *Proc) { NewChan[int](env).Recv(p) })
	env.Spawn("parked-gate", func(p *Proc) { NewGate(env).Wait(p) })
	env.RunAll()
	env.Shutdown()
	return h.Sum64(), n
}

// TestSchedulerOrderPinned pins the exact scheduler order of a mixed model,
// under one OS thread and under several: the dispatcher must be a pure
// function of the event queue, never of goroutine scheduling.
func TestSchedulerOrderPinned(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < 3; i++ {
				sum, n := runMixedModel()
				if sum != schedulerOrderHash || n != schedulerOrderEvents {
					t.Fatalf("run %d: trace hash %#x over %d events, want %#x over %d", i, sum, n, schedulerOrderHash, schedulerOrderEvents)
				}
			}
		})
	}
}
