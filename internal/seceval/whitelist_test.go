package seceval

// Table-driven denial tests generated from the live Figure-3.1 Assignment
// state: after a Xoar boot, every privileged hypercall in every shard's
// whitelist is invoked by a plain guest, and the hypervisor must refuse with
// an ErrPerm-family error while bumping the DeniedCalls audit counter. The
// table is derived from the booted platform's actual privilege state — if a
// future boot sequence widens a shard's whitelist, the new entry is
// exercised automatically (and a whitelisted call without an invoker below
// fails the test loudly rather than silently going untested).

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"xoar/internal/capability"
	"xoar/internal/hv"
	"xoar/internal/xtypes"
)

// hypercallInvokers calls each privileged hypercall's hypervisor entry point
// as caller. Denial happens at the whitelist audit, before target handling,
// so the victim argument only needs to be a live domain.
var hypercallInvokers = map[xtypes.Hypercall]func(h *hv.Hypervisor, caller, victim xtypes.DomID) error{
	xtypes.HyperDomctlCreate: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		_, err := h.CreateDomain(c, hv.DomainConfig{Name: "implant", MemMB: 16})
		return err
	},
	xtypes.HyperDomctlDestroy: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.DestroyDomain(c, v, "attack")
	},
	xtypes.HyperDomctlPause: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.Pause(c, v)
	},
	xtypes.HyperDomctlUnpause: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.Unpause(c, v)
	},
	xtypes.HyperDomctlMaxMem: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.SetMaxMem(c, v, 64)
	},
	xtypes.HyperDomctlPriv: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.AssignPrivileges(c, c, hv.Assignment{ControlAll: true})
	},
	xtypes.HyperMapForeign: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.MapForeign(c, v, 0)
	},
	xtypes.HyperSetVIRQ: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.RouteHardwareVIRQ(c, xtypes.VIRQConsole, c)
	},
	xtypes.HyperVMSnapshot: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.VMSnapshot(c)
	},
	xtypes.HyperVMRollback: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		_, err := h.VMRollback(c, v)
		return err
	},
	xtypes.HyperDelegateAdmin: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.Delegate(c, v, c)
	},
	xtypes.HyperIOPortAccess: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.GrantIOPorts(c, c, "console")
	},
	xtypes.HyperDebugOp: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.DebugOp(c)
	},
	xtypes.HyperSetParentTool: func(h *hv.Hypervisor, c, v xtypes.DomID) error {
		return h.SetParentTool(c, v, c)
	},
}

// noHVEntryPoint lists whitelisted hypercalls enforced outside the
// hypervisor's dispatch surface in this model (device assignment rides
// AssignPrivileges; restart policies are audited by snapshot.Engine.Manage).
// The set comes straight from the manifest's rationale grants — the grants
// capgen could not derive from a privilege-matrix row are exactly the ones
// no invoker above can reach.
var noHVEntryPoint = capability.NonHVGrants()

func TestGuestDeniedEveryShardWhitelistedHypercall(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	h := pl.HV
	attacker, victim := guests[0], guests[1]

	shards := 0
	for _, d := range h.Domains() {
		if !d.IsShard() {
			continue
		}
		priv := d.Priv()
		if len(priv.Hypercalls) == 0 {
			continue
		}
		shards++
		var hcs []xtypes.Hypercall
		for hc := range priv.Hypercalls {
			hcs = append(hcs, hc)
		}
		sort.Slice(hcs, func(i, j int) bool { return hcs[i] < hcs[j] })
		for _, hc := range hcs {
			invoke, ok := hypercallInvokers[hc]
			if !ok {
				if noHVEntryPoint[hc] {
					continue
				}
				t.Fatalf("%s whitelists %v but no invoker covers it — extend hypercallInvokers", d.Name, hc)
			}
			t.Run(fmt.Sprintf("%s/%v", d.Name, hc), func(t *testing.T) {
				before := h.DeniedCalls
				err := invoke(h, attacker, victim)
				if err == nil {
					t.Fatalf("guest %v invoked %v without privilege and succeeded", attacker, hc)
				}
				if !errors.Is(err, xtypes.ErrPerm) {
					t.Fatalf("guest %v invoking %v: err = %v, want ErrPerm", attacker, hc, err)
				}
				if h.DeniedCalls <= before {
					t.Fatalf("DeniedCalls did not increment for %v (before=%d after=%d)", hc, before, h.DeniedCalls)
				}
			})
		}
	}
	if shards < 4 {
		t.Fatalf("only %d privileged shards exercised; boot shape changed?", shards)
	}
}

// TestUnmapForeignRequiresMapForeign pins the first privcheck day-one fix:
// releasing a foreign mapping is privileged like creating one. Reverting the
// check in hv.UnmapForeign makes the denial half fail.
func TestUnmapForeignRequiresMapForeign(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	h := pl.HV
	attacker, victim := guests[0], guests[1]

	before := h.DeniedCalls
	err := h.UnmapForeign(attacker, victim)
	if !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("guest UnmapForeign: err = %v, want ErrPerm", err)
	}
	if h.DeniedCalls != before+1 {
		t.Fatalf("DeniedCalls = %d, want %d", h.DeniedCalls, before+1)
	}

	// Positive control: the toolstack holds HyperMapForeign and parents its
	// guests, so its map/unmap pair must keep working.
	ts := pl.Toolstacks[0].Dom
	if err := h.MapForeign(ts, victim, 0); err != nil {
		t.Fatalf("toolstack MapForeign: %v", err)
	}
	if err := h.UnmapForeign(ts, victim); err != nil {
		t.Fatalf("toolstack UnmapForeign: %v", err)
	}
}

// TestRecoveryBoxRequiresSnapshotPrivilege pins the second day-one fix:
// recovery boxes are part of the snapshot protocol (§3.3) and demand the
// same HyperVMSnapshot entry as VMSnapshot.
func TestRecoveryBoxRequiresSnapshotPrivilege(t *testing.T) {
	env, pl, guests := bootPlatform(t, false)
	defer env.Shutdown()
	h := pl.HV

	before := h.DeniedCalls
	err := h.RegisterRecoveryBox(guests[0], 0, 1)
	if !errors.Is(err, xtypes.ErrPerm) {
		t.Fatalf("guest RegisterRecoveryBox: err = %v, want ErrPerm", err)
	}
	if h.DeniedCalls != before+1 {
		t.Fatalf("DeniedCalls = %d, want %d", h.DeniedCalls, before+1)
	}

	// Positive control: driver shards are snapshot-enrolled and must still be
	// able to carve out their connection state.
	if len(pl.NetBacks) == 0 {
		t.Fatal("no NetBack shards booted")
	}
	if err := h.RegisterRecoveryBox(pl.NetBacks[0].Dom, 8, 2); err != nil {
		t.Fatalf("NetBack RegisterRecoveryBox: %v", err)
	}
}
