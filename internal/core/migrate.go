package core

import (
	"fmt"

	"xoar/internal/migrate"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/workload"
	"xoar/internal/xtypes"
)

// MigrationResult reports a completed live migration.
type MigrationResult struct {
	// Guest is the adopted guest record on the destination platform.
	Guest *Guest
	// Stats are the pre-copy metrics (rounds, downtime, totals).
	Stats migrate.Result
}

// MigrateGuest live-migrates g to the destination platform, which must share
// this platform's virtual clock (boot both through NewCluster). The source
// toolstack orchestrates the pre-copy — the hypervisor audits its
// foreign-mapping rights over exactly this guest — and the destination's
// Builder constructs the receiving domain. Afterwards the destination
// toolstack adopts the guest and re-wires its devices through its own driver
// shards, exactly as Xen re-attaches vifs and vbds after a migration.
func (pl *Platform) MigrateGuest(g *Guest, dst *Platform) (*MigrationResult, error) {
	if pl.Env != dst.Env {
		return nil, fmt.Errorf("core: migrate across unrelated simulations (use NewCluster): %w", xtypes.ErrInvalid)
	}
	if _, ok := pl.guests[g.Dom]; !ok {
		return nil, fmt.Errorf("core: %v not managed here: %w", g.Dom, xtypes.ErrNotFound)
	}
	srcTS := pl.Boot.Toolstacks[0]
	dstTS := dst.Boot.Toolstacks[0]

	var res MigrationResult
	var err error
	done := false
	pl.Env.Spawn("migrate-"+g.Name, func(p *sim.Proc) {
		defer func() { done = true }()
		var newDom xtypes.DomID
		newDom, res.Stats, err = migrate.LiveMigrate(
			p, pl.HV, srcTS.Dom, g.Dom,
			dst.HV, dst.Boot.BuilderDom,
			migrate.DefaultLink(), migrate.DefaultOptions())
		if err != nil {
			return
		}
		// Source-side bookkeeping: the toolstack's record, the shard links
		// and the disk image go through the normal detach path (the domain
		// itself is already gone).
		srcTS.Forget(g.Dom)
		delete(pl.guests, g.Dom)

		// Destination: hand the domain to the toolstack and re-wire devices.
		if err = dst.HV.SetParentTool(dst.Boot.BuilderDom, newDom, dstTS.Dom); err != nil {
			return
		}
		var rec *toolstack.Guest
		rec, err = dstTS.Adopt(p, newDom, toolstack.GuestConfig{
			Name: g.Name, MemMB: g.rec.Cfg.MemMB,
			Net: g.rec.Cfg.Net, Disk: g.rec.Cfg.Disk,
			DiskMB: g.rec.Cfg.DiskMB, ConstraintTag: g.rec.Cfg.ConstraintTag,
		})
		if err != nil {
			return
		}
		ng := &Guest{
			Name: g.Name,
			Dom:  newDom,
			VM:   workload.VMOf(dst.HV, rec),
			rec:  rec,
			pl:   dst,
		}
		dst.guests[newDom] = ng
		res.Guest = ng
	})
	for i := 0; i < 600 && !done; i++ {
		pl.Env.RunFor(sim.Second)
	}
	if !done {
		return nil, fmt.Errorf("core: migration did not complete")
	}
	if err != nil {
		return nil, err
	}
	return &res, nil
}
