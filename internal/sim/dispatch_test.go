package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestCallbackPanicSurfacesFromRun covers a callback that panics while
// dispatched on a blocked process's goroutine. The shape is
// attack.Harness.Run: the process guards its body with its own recover, and
// a panic from someone else's callback must not land in it. The panic must
// come out of env.Run on the caller's goroutine with its original value.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	for _, tc := range []struct {
		name     string
		schedule func(env *Env, fn func())
	}{
		{"After", func(env *Env, fn func()) { env.After(Millisecond, fn) }},
		{"Post", func(env *Env, fn func()) { env.Post(fn) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv(1)
			var sawInProc any
			env.Spawn("guarded", func(p *Proc) {
				defer func() {
					if r := recover(); r != nil {
						if _, killed := r.(procKilled); !killed {
							sawInProc = r
						}
					}
				}()
				// The callback is the next event once this process
				// blocks, so this goroutine is the one that runs it.
				tc.schedule(env, func() { panic(boom{7}) })
				p.Sleep(Second)
			})
			got := func() (r any) {
				defer func() { r = recover() }()
				env.Run(Time(10 * Second))
				return nil
			}()
			if got != (boom{7}) {
				t.Fatalf("env.Run panicked with %#v, want boom{7}", got)
			}
			if sawInProc != nil {
				t.Fatalf("the blocked process's recover saw %#v", sawInProc)
			}
			env.Shutdown()
			if n := env.LiveProcs(); n != 0 {
				t.Fatalf("%d processes live after Shutdown", n)
			}
		})
	}
}

// TestShutdownReleasesGoroutines checks that Shutdown ends the goroutine of
// every process, wherever it is parked, including one that never started.
func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	ch := NewChan[int](env)
	sig := NewSignal(env)
	cpu := NewResource(env, 1)
	env.Spawn("sleep", func(p *Proc) { p.Sleep(Minute) })
	env.Spawn("recv", func(p *Proc) { ch.Recv(p) })
	env.Spawn("wait", func(p *Proc) { sig.Wait(p) })
	env.Spawn("holder", func(p *Proc) { cpu.Use(p, Minute) })
	env.Spawn("acquire", func(p *Proc) { cpu.Acquire(p) })
	env.RunFor(Second)
	if n := env.LiveProcs(); n != 5 {
		t.Fatalf("%d live processes before Shutdown, want 5", n)
	}
	env.Spawn("unstarted", func(p *Proc) { t.Error("process spawned before Shutdown ran its body") })
	env.Shutdown()
	if n := env.LiveProcs(); n != 0 {
		t.Fatalf("%d processes live after Shutdown", n)
	}
	// The last goroutine hands the baton back just before it returns, so
	// give it a moment to finish exiting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before NewEnv", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
