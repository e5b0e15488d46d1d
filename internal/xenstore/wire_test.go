package xenstore

import (
	"strings"
	"testing"

	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// nullComputer satisfies Computer without a hypervisor.
type nullComputer struct{ charged sim.Duration }

func (n *nullComputer) Compute(p *sim.Proc, dom xtypes.DomID, d sim.Duration) {
	n.charged += d
	p.Sleep(d)
}

func wireRig(t *testing.T) (*sim.Env, *Server, *Client, *nullComputer) {
	t.Helper()
	env, srv, cl, cpu, _ := wireRigFull(t)
	return env, srv, cl, cpu
}

func wireRigFull(t *testing.T) (*sim.Env, *Server, *Client, *nullComputer, *Logic) {
	t.Helper()
	env := sim.NewEnv(1)
	logic := NewLogic(env, NewState())
	cpu := &nullComputer{}
	srv := newServer(logic, 2, cpu)
	cl := srv.serve(env, 0, true) // privileged client, like a toolstack
	return env, srv, cl, cpu, logic
}

func TestWireReadWriteRoundTrip(t *testing.T) {
	env, srv, cl, cpu := wireRig(t)
	env.Spawn("client", func(p *sim.Proc) {
		if err := cl.write(p, TxNone, "/local/domain/5/name", "g5"); err != nil {
			t.Error(err)
			return
		}
		v, err := cl.read(p, TxNone, "/local/domain/5/name")
		if err != nil || v != "g5" {
			t.Errorf("read = %q, %v", v, err)
		}
		names, err := cl.directory(p, TxNone, "/local/domain")
		if err != nil || len(names) != 1 || names[0] != "5" {
			t.Errorf("directory = %v, %v", names, err)
		}
	})
	env.RunFor(sim.Second)
	env.Shutdown()
	if srv.Handled != 3 {
		t.Fatalf("handled = %d", srv.Handled)
	}
	if cpu.charged != 3*wireOpCPU {
		t.Fatalf("cpu charged = %v", cpu.charged)
	}
}

func TestWireErrorsCrossTheRing(t *testing.T) {
	env, _, cl, _ := wireRig(t)
	env.Spawn("client", func(p *sim.Proc) {
		_, err := cl.read(p, TxNone, "/missing")
		if err == nil || !strings.Contains(err.Error(), "not found") {
			t.Errorf("missing read over wire: %v", err)
		}
		if err := cl.rm(p, TxNone, "bad-path"); err == nil {
			t.Error("bad path accepted over wire")
		}
	})
	env.RunFor(sim.Second)
	env.Shutdown()
}

func TestWireTransactions(t *testing.T) {
	env, _, cl, _ := wireRig(t)
	env.Spawn("client", func(p *sim.Proc) {
		tx, err := cl.txStart(p)
		if err != nil || tx == TxNone {
			t.Errorf("txstart: %v %v", tx, err)
			return
		}
		cl.write(p, tx, "/a", "1")
		if v, _ := cl.read(p, TxNone, "/a"); v != "" {
			t.Error("dirty read over wire")
		}
		if err := cl.txEnd(p, tx, true); err != nil {
			t.Error(err)
		}
		if v, _ := cl.read(p, TxNone, "/a"); v != "1" {
			t.Error("commit lost over wire")
		}
	})
	env.RunFor(sim.Second)
	env.Shutdown()
}

func TestWireWatchEvents(t *testing.T) {
	env, _, cl, _ := wireRig(t)
	var events []WatchEvent
	env.Spawn("watcher", func(p *sim.Proc) {
		if err := cl.watch(p, "/dev", "tok"); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ { // initial synthetic + one real
			ev, err := cl.nextEvent(p)
			if err != nil {
				t.Error(err)
				return
			}
			events = append(events, ev)
		}
	})
	env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		cl.write(p, TxNone, "/dev/vif/0", "up")
	})
	env.RunFor(sim.Second)
	env.Shutdown()
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[1].Path != "/dev/vif/0" || events[1].Token != "tok" {
		t.Fatalf("event = %+v", events[1])
	}
}

func TestWireUnprivilegedClientEnforced(t *testing.T) {
	env := sim.NewEnv(1)
	logic := NewLogic(env, NewState())
	srv := newServer(logic, 2, nil)
	priv := srv.serve(env, 0, true)
	guest := srv.serve(env, 5, false)
	env.Spawn("test", func(p *sim.Proc) {
		priv.write(p, TxNone, "/secret", "root-only")
		if _, err := guest.read(p, TxNone, "/secret"); err == nil {
			t.Error("unprivileged wire client read a private node")
		}
	})
	env.RunFor(sim.Second)
	env.Shutdown()
}

func TestWireSurvivesLogicRestart(t *testing.T) {
	env, _, cl, _, logic := wireRigFull(t)
	env.Spawn("client", func(p *sim.Proc) {
		cl.write(p, TxNone, "/persist", "v")
		tx, _ := cl.txStart(p)
		// Logic microreboots under the live connection.
		logic.Restart()
		// The transaction is gone; the data is not; the ring still works.
		if err := cl.txEnd(p, tx, true); err == nil {
			t.Error("transaction survived a Logic restart")
		}
		if v, err := cl.read(p, TxNone, "/persist"); err != nil || v != "v" {
			t.Errorf("data after restart = %q, %v", v, err)
		}
	})
	env.RunFor(sim.Second)
	env.Shutdown()
}
