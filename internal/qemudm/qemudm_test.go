package qemudm

import (
	"errors"
	"testing"

	"xoar/internal/blkdrv"
	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

type harness struct {
	env    *sim.Env
	h      *hv.Hypervisor
	q      *QemuVM
	guest  *hv.Domain
	victim *hv.Domain
	blk    *blkdrv.Backend
}

func setup(t *testing.T) *harness {
	t.Helper()
	env := sim.NewEnv(1)
	machine := hw.NewMachine(env)
	h := hv.New(env, machine)
	h.EnforceShardIVC = true

	qd, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "qemu", MemMB: 64, Shard: true})
	h.Unpause(hv.SystemCaller, qd.ID)
	guest, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "hvm-guest", MemMB: 256})
	h.Unpause(hv.SystemCaller, guest.ID)
	victim, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "victim", MemMB: 256})
	h.Unpause(hv.SystemCaller, victim.ID)

	// Builder-side setup: the QemuVM may map exactly its guest, and needs
	// the foreign-map hypercall whitelisted.
	h.AssignPrivileges(hv.SystemCaller, qd.ID, hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperMapForeign}})
	h.SetPrivilegedFor(hv.SystemCaller, qd.ID, guest.ID)

	// Block path: a BlkBack the QemuVM connects to as a client.
	bbDom, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "blkback", MemMB: 128, Shard: true})
	h.Unpause(hv.SystemCaller, bbDom.ID)
	h.LinkShardClient(hv.SystemCaller, bbDom.ID, qd.ID)
	logic := xenstore.NewLogic(env, xenstore.NewState())
	blk := blkdrv.NewBackend(h, bbDom.ID, machine.Disks()[0], logic.Connect(bbDom.ID, true))

	q := New(h, qd.ID, guest.ID)
	q.Blk = blkdrv.NewFrontend(h, qd.ID, logic.Connect(qd.ID, true))
	hn := &harness{env: env, h: h, q: q, guest: guest, victim: victim, blk: blk}

	ok := false
	env.Spawn("boot", func(p *sim.Proc) {
		blk.Start(p)
		blk.CreateImage("hvm-disk", 1024)
		blk.CreateVbdQueues(qd.ID, "hvm-disk", 1)
		if err := q.Blk.Connect(p, blk); err != nil {
			t.Error(err)
			return
		}
		ok = true
	})
	env.RunFor(10 * sim.Second)
	if !ok {
		t.Fatal("boot failed")
	}
	return hn
}

func TestEmulatedDiskIO(t *testing.T) {
	hn := setup(t)
	hn.env.Spawn("guest-io", func(p *sim.Proc) {
		if err := hn.q.DiskWrite(p, 1<<20, true); err != nil {
			t.Error(err)
		}
		if err := hn.q.diskRead(p, 1<<20, true); err != nil {
			t.Error(err)
		}
	})
	hn.env.RunFor(10 * sim.Second)
	hn.env.Shutdown()
	if hn.q.EmulatedOps != 2 {
		t.Fatalf("emulated ops = %d", hn.q.EmulatedOps)
	}
	if hn.q.Blk.BytesWritten != 1<<20 {
		t.Fatalf("written = %d", hn.q.Blk.BytesWritten)
	}
}

func TestEmulationSlowerThanPV(t *testing.T) {
	hn := setup(t)
	var emulT, pvT sim.Duration
	hn.env.Spawn("compare", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 20; i++ {
			hn.q.DiskWrite(p, 4096, true)
		}
		emulT = p.Now().Sub(t0)
		t0 = p.Now()
		for i := 0; i < 20; i++ {
			hn.q.Blk.Write(p, 4096, true)
		}
		pvT = p.Now().Sub(t0)
	})
	hn.env.RunFor(30 * sim.Second)
	hn.env.Shutdown()
	if emulT <= pvT {
		t.Fatalf("emulated %v not slower than PV %v", emulT, pvT)
	}
}

func TestEscapeContained(t *testing.T) {
	hn := setup(t)
	var escErr, ownErr error
	hn.env.Spawn("attack", func(p *sim.Proc) {
		// Mapping its own guest is legitimate (that is its job).
		ownErr = hn.h.MapForeign(hn.q.Dom, hn.guest.ID, 0)
		// Mapping anyone else must fail: the §6.2.1 containment property.
		escErr = hn.q.attemptEscape(p, hn.victim.ID)
	})
	hn.env.RunFor(sim.Second)
	hn.env.Shutdown()
	if ownErr != nil {
		t.Fatalf("own-guest map: %v", ownErr)
	}
	if !errors.Is(escErr, xtypes.ErrPerm) {
		t.Fatalf("escape attempt: %v", escErr)
	}
}

func TestNoPathsConfigured(t *testing.T) {
	env := sim.NewEnv(1)
	h := hv.New(env, hw.NewMachine(env))
	qd, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "q", MemMB: 64, Shard: true})
	h.Unpause(hv.SystemCaller, qd.ID)
	g, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "g", MemMB: 64})
	h.Unpause(hv.SystemCaller, g.ID)
	h.AssignPrivileges(hv.SystemCaller, qd.ID, hv.Assignment{Hypercalls: []xtypes.Hypercall{xtypes.HyperMapForeign}})
	h.SetPrivilegedFor(hv.SystemCaller, qd.ID, g.ID)
	q := New(h, qd.ID, g.ID)
	var err error
	env.Spawn("io", func(p *sim.Proc) { err = q.DiskWrite(p, 4096, true) })
	env.RunAll()
	if !errors.Is(err, xtypes.ErrInvalid) {
		t.Fatalf("io without path: %v", err)
	}
}
