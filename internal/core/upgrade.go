package core

import (
	"errors"
	"fmt"

	"xoar/internal/builder"
	"xoar/internal/hv"
	"xoar/internal/netdrv"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/xtypes"
)

// UpgradeNetBack performs an in-place driver upgrade (§6.2): the old NetBack
// shard is destroyed, the Builder instantiates a fresh one — the new driver
// release — which takes over the NIC, and every guest's vif is renegotiated
// against the new backend. Guests observe a disconnect/reconnect, the same
// recovery path microreboots exercise; nothing else on the host is
// disturbed. Returns the new shard's domain ID.
//
// This is the scenario the paper contrasts with a monolithic control VM,
// where "buggy, outdated and vulnerable device drivers often continue to be
// used because of the downtime and costs associated with upgrading a single
// driver".
func (pl *Platform) UpgradeNetBack(index int) (xtypes.DomID, error) {
	if pl.Profile == MonolithicDom0 {
		return xtypes.DomIDNone, fmt.Errorf("core: driver upgrade needs the shard architecture: %w", xtypes.ErrInvalid)
	}
	if index < 0 || index >= len(pl.Boot.NetBacks) {
		return xtypes.DomIDNone, fmt.Errorf("core: netback %d: %w", index, xtypes.ErrNotFound)
	}
	old := pl.Boot.NetBacks[index]
	nic := old.NIC
	oldDom := old.Dom

	// Collect the guests currently wired to this backend so we can
	// reattach them afterwards.
	var clients []*Guest
	for _, g := range pl.guests {
		if g.rec.NetB == old {
			clients = append(clients, g)
		}
	}

	// Any restart policy on the old shard dies with it.
	pl.Boot.Engine.Unmanage(oldDom)

	var newDom xtypes.DomID
	var err error
	if !pl.step("upgrade-netback", 120, func(p *sim.Proc) {
		// Tear the old shard down: vifs break, the NIC is released.
		for _, g := range clients {
			old.RemoveVif(g.Dom)
		}
		// The old shard may already be dead — the crash-recovery case; an
		// upgrade then degenerates to a rebuild.
		if err = pl.HV.DestroyDomain(pl.Boot.BuilderDom, oldDom, "driver upgrade"); err != nil {
			if !errors.Is(err, xtypes.ErrNoDomain) {
				return
			}
			err = nil
		}
		// Build the replacement with the same privileges.
		newDom, err = pl.Boot.Builder.BuildDirect(p, builder.Request{
			Requester: pl.Boot.BuilderDom,
			Name:      "netback",
			Image:     osimage.ImgNetBack,
			Shard:     true,
			Privileges: hv.Assignment{
				PCIDevices: []xtypes.PCIAddr{nic.Addr()},
				Hypercalls: []xtypes.Hypercall{xtypes.HyperVMSnapshot},
			},
		})
		if err != nil {
			return
		}
		nb := netdrv.NewBackend(pl.HV, newDom, nic, pl.Boot.XenStoreLogic.Connect(newDom, false))
		nb.Start(p) // NIC hardware stays initialized: this is quick
		pl.HV.VMSnapshot(newDom)
		pl.Boot.NetBacks[index] = nb

		// Every toolstack that held the old shard gets the new one; their
		// clients relink and reconnect.
		for _, ts := range pl.Boot.Toolstacks {
			for i, b := range ts.NetBacks {
				if b == old {
					ts.NetBacks[i] = nb
				}
			}
		}
		for _, g := range clients {
			ts := pl.Boot.Toolstacks[0]
			for _, cand := range pl.Boot.Toolstacks {
				if tsManages(cand, g.Dom) {
					ts = cand
					break
				}
			}
			if err = pl.HV.Delegate(pl.Boot.BuilderDom, newDom, ts.Dom); err != nil {
				return
			}
			if err = pl.HV.LinkShardClient(ts.Dom, newDom, g.Dom); err != nil {
				return
			}
			nb.CreateVif(g.Dom)
			g.rec.NetB = nb
			g.VM.NetB = nb
			fe := netdrv.NewFrontend(pl.HV, g.Dom, pl.Boot.XenStoreLogic.Connect(g.Dom, false))
			if err = fe.Connect(p, nb); err != nil {
				return
			}
			g.rec.Net = fe
			g.VM.Net = fe
		}
	}) {
		return xtypes.DomIDNone, fmt.Errorf("core: upgrade did not complete")
	}
	if err != nil {
		return xtypes.DomIDNone, err
	}
	return newDom, nil
}

// tsManages reports whether ts manages dom.
func tsManages(ts *toolstack.Toolstack, dom xtypes.DomID) bool {
	for _, g := range ts.Guests() {
		if g.Dom == dom {
			return true
		}
	}
	return false
}
