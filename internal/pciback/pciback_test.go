package pciback

import (
	"errors"
	"testing"

	"xoar/internal/hv"
	"xoar/internal/hw"
	"xoar/internal/sim"
	"xoar/internal/xenstore"
	"xoar/internal/xtypes"
)

func setup(t *testing.T) (*sim.Env, *hv.Hypervisor, *PCIBack, *hv.Domain) {
	t.Helper()
	env := sim.NewEnv(1)
	machine := hw.NewMachine(env)
	h := hv.New(env, machine)
	pb, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "pciback", MemMB: 256, Shard: true})
	h.Unpause(hv.SystemCaller, pb.ID)
	h.GrantIOPorts(hv.SystemCaller, pb.ID, "pci")
	nb, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "netback", MemMB: 128, Shard: true})
	h.Unpause(hv.SystemCaller, nb.ID)
	logic := xenstore.NewLogic(env, xenstore.NewState())
	p := New(h, pb.ID, machine.Bus, logic.Connect(pb.ID, true))
	return env, h, p, nb
}

func TestStartEnumerates(t *testing.T) {
	env, _, pb, _ := setup(t)
	var err error
	env.Spawn("boot", func(p *sim.Proc) { err = pb.Start(p) })
	end := env.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Devices()) != 2 {
		t.Fatalf("devices = %d", len(pb.Devices()))
	}
	if sim.Duration(end) < pb.Bus.EnumTime {
		t.Fatalf("enumeration too fast: %v", sim.Duration(end))
	}
	if len(pb.devicesOfClass(xtypes.DevNIC)) != 1 {
		t.Fatal("NIC not classified")
	}
	// Inventory published in XenStore.
	if _, err := pb.XS.Read(xenstore.TxNone, "/local/domain/0/pci/dev-0"); err != nil {
		t.Fatalf("xenstore inventory: %v", err)
	}
}

func TestProxyConfigAccessRequiresAssignment(t *testing.T) {
	env, h, pb, nb := setup(t)
	env.Spawn("test", func(p *sim.Proc) {
		if err := pb.Start(p); err != nil {
			t.Error(err)
			return
		}
		nicAddr := pb.devicesOfClass(xtypes.DevNIC)[0].Addr()
		// Before assignment: denied.
		if err := pb.proxyConfigAccess(p, nb.ID, nicAddr); !errors.Is(err, xtypes.ErrPerm) {
			t.Errorf("unassigned config access: %v", err)
		}
		h.AssignPrivileges(hv.SystemCaller, nb.ID, hv.Assignment{PCIDevices: []xtypes.PCIAddr{nicAddr}})
		if err := pb.proxyConfigAccess(p, nb.ID, nicAddr); err != nil {
			t.Errorf("assigned config access: %v", err)
		}
		if pb.ProxiedOps != 1 {
			t.Errorf("proxied = %d", pb.ProxiedOps)
		}
	})
	env.RunAll()
}

func TestSelfDestructLeavesDevicesAssigned(t *testing.T) {
	env, h, pb, nb := setup(t)
	env.Spawn("test", func(p *sim.Proc) {
		pb.Start(p)
		nicAddr := pb.devicesOfClass(xtypes.DevNIC)[0].Addr()
		h.AssignPrivileges(hv.SystemCaller, nb.ID, hv.Assignment{PCIDevices: []xtypes.PCIAddr{nicAddr}})
		if err := pb.SelfDestruct(p); err != nil {
			t.Error(err)
			return
		}
		// The domain is gone, the host is fine, the NIC stays with NetBack.
		if _, err := h.Domain(pb.Dom); !errors.Is(err, xtypes.ErrNoDomain) {
			t.Error("pciback domain survived")
		}
		if h.CrashedHost {
			t.Error("self-destruct crashed host")
		}
		if pb.Bus.AssignedTo(nicAddr) != nb.ID {
			t.Error("device assignment lost")
		}
		// Further proxying is impossible — steady state needs no config access.
		if err := pb.proxyConfigAccess(p, nb.ID, nicAddr); !errors.Is(err, xtypes.ErrShutdown) {
			t.Errorf("proxy after destruct: %v", err)
		}
	})
	env.RunAll()
}

func TestStartRequiresPorts(t *testing.T) {
	env := sim.NewEnv(1)
	machine := hw.NewMachine(env)
	h := hv.New(env, machine)
	d, _ := h.CreateDomain(hv.SystemCaller, hv.DomainConfig{Name: "pciback", MemMB: 256, Shard: true})
	h.Unpause(hv.SystemCaller, d.ID)
	logic := xenstore.NewLogic(env, xenstore.NewState())
	pb := New(h, d.ID, machine.Bus, logic.Connect(d.ID, true))
	var err error
	env.Spawn("boot", func(p *sim.Proc) { err = pb.Start(p) })
	env.RunAll()
	if !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("start without pci ports: %v", err)
	}
}
