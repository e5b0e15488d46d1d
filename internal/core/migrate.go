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
// toolstack hands the guest to the destination's with
// toolstack.MigrateTo, which re-wires its devices through the destination's
// driver shards.
func (pl *Platform) MigrateGuest(g *Guest, dst *Platform) (*MigrationResult, error) {
	if pl.Env != dst.Env {
		return nil, fmt.Errorf("core: migrate across unrelated simulations (use NewCluster): %w", xtypes.ErrInvalid)
	}
	if pl.guests[g.Dom] != g {
		return nil, fmt.Errorf("core: %v not managed here: %w", g.Dom, xtypes.ErrNotFound)
	}
	var rec *toolstack.Guest
	var res MigrationResult
	var err error
	if !pl.step("migrate-"+g.Name, 600, func(p *sim.Proc) {
		rec, res.Stats, err = pl.Boot.Toolstacks[0].MigrateTo(p, g.Dom, dst.Boot.Toolstacks[0])
	}) {
		return nil, fmt.Errorf("core: migration did not complete")
	}
	if err != nil {
		return nil, err
	}
	delete(pl.guests, g.Dom)
	res.Guest = &Guest{Name: g.Name, Dom: rec.Dom, VM: workload.VMOf(dst.HV, rec), rec: rec, pl: dst}
	dst.guests[rec.Dom] = res.Guest
	return &res, nil
}
