package workload

import (
	"testing"

	"xoar/internal/sim"
	"xoar/internal/toolstack"

	"xoar/internal/osimage"
)

// On the Xoar profile a hostile tenant's probes are all denied while its
// legitimate traffic keeps flowing: the platform degrades the attacker to
// an ordinary (noisy) customer.
func TestHostileWorkloadFullyDeniedOnXoar(t *testing.T) {
	env, pl, vm := platform(t, false)
	defer env.Shutdown()
	var victim *toolstack.Guest
	var res HostileResult
	var err error
	env.Spawn("hostile", func(p *sim.Proc) {
		victim, err = pl.Toolstacks[0].CreateVM(p, toolstack.GuestConfig{
			Name: "victim", Image: osimage.ImgGuestPV, MemMB: 256, Net: true, Disk: true,
		})
		if err != nil {
			return
		}
		res, err = hostile(p, vm, victim.Dom, HostileConfig{Seed: 7, Probes: 16, LegitPerProbe: 3})
	})
	env.RunFor(600 * sim.Second)
	if err != nil {
		t.Fatalf("hostile: %v", err)
	}
	if res.Escalations != 0 {
		t.Fatalf("hostile guest escalated %d times", res.Escalations)
	}
	if res.Denied != res.Attempted || res.Attempted != 16 {
		t.Fatalf("attempted=%d denied=%d, want 16/16", res.Attempted, res.Denied)
	}
	if res.LegitOps != 48 {
		t.Fatalf("legit ops = %d, want 48", res.LegitOps)
	}
	// Determinism: the same seed replays the same mix.
	var res2 HostileResult
	env.Spawn("hostile-2", func(p *sim.Proc) {
		res2, err = hostile(p, vm, victim.Dom, HostileConfig{Seed: 7, Probes: 16, LegitPerProbe: 3})
	})
	env.RunFor(600 * sim.Second)
	if err != nil {
		t.Fatalf("hostile replay: %v", err)
	}
	if res2.Attempted != res.Attempted || res2.Denied != res.Denied || res2.LegitOps != res.LegitOps {
		t.Fatalf("replay diverged: %+v vs %+v", res2, res)
	}
}
