package workload

import (
	"math/rand"

	"xoar/internal/guest"
	"xoar/internal/hv"
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// HostileConfig parameterizes a tenant that behaves normally most of the
// time — disk transactions, small network RPCs — but interleaves privilege
// probes against the platform, the traffic shape of a compromised-but-
// stealthy guest. The mix is fully seeded so a run is reproducible.
type HostileConfig struct {
	Seed int64
	// Probes is the number of hostile hypervisor calls to issue.
	Probes int
	// LegitPerProbe is how many ordinary service operations separate
	// consecutive probes (the camouflage ratio).
	LegitPerProbe int
}

// HostileResult accounts both halves of the mix. On the Xoar profile every
// probe must be denied and Escalations must be zero; on stock Xen the same
// sequence leaks successes, which is what the drift tests pin.
type HostileResult struct {
	LegitOps    int
	Attempted   int
	Denied      int
	Escalations int
	Elapsed     sim.Duration
}

// hostile drives the mix from vm against victim. Legitimate traffic uses
// the guest's real driver paths (so backend load stays plausible); probes
// go straight at the hypervisor's privileged surface.
func hostile(p *sim.Proc, vm *guest.VM, victim xtypes.DomID, cfg HostileConfig) (HostileResult, error) {
	if cfg.Probes <= 0 {
		cfg.Probes = 8
	}
	if cfg.LegitPerProbe <= 0 {
		cfg.LegitPerProbe = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := vm.H
	probes := []func() error{
		func() error { return h.MapForeign(vm.Dom, victim, xtypes.PFN(rng.Intn(64))) },
		func() error { _, err := h.Grant(vm.Dom, victim, xtypes.PFN(rng.Intn(64)), false); return err },
		func() error { _, err := h.EvtchnAllocUnbound(vm.Dom, victim); return err },
		func() error {
			_, err := h.CreateDomain(vm.Dom, hv.DomainConfig{Name: "implant", MemMB: 16})
			return err
		},
		func() error { return h.DestroyDomain(vm.Dom, victim, "hostile") },
		func() error { return h.AssignPrivileges(vm.Dom, vm.Dom, hv.Assignment{ControlAll: true}) },
		func() error { _, err := h.VMRollback(vm.Dom, victim); return err },
		func() error { return h.DebugOp(vm.Dom) },
	}

	var res HostileResult
	start := p.Now()
	for i := 0; i < cfg.Probes; i++ {
		for j := 0; j < cfg.LegitPerProbe; j++ {
			if rng.Intn(2) == 0 {
				if err := vm.Blk.Write(p, 16*1024, false); err != nil {
					return res, err
				}
			} else {
				vm.NetRPC(p, 1024, 1024, 100*sim.Microsecond)
			}
			res.LegitOps++
		}
		res.Attempted++
		if err := probes[rng.Intn(len(probes))](); err != nil {
			res.Denied++
		} else {
			res.Escalations++
		}
		p.Sleep(10 * sim.Millisecond)
	}
	res.Elapsed = p.Now().Sub(start)
	return res, nil
}
