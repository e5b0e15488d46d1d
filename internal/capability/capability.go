// Package capability is the runtime half of the generated capability
// pipeline (DESIGN.md §13):
//
//	internal/hv source → privflow/funcflow → PRIVMATRIX → capgen → CAPMANIFEST → boot whitelists
//
// It declares the two hand-maintained inputs — the ring classification of
// each hypercall (§7.1) and the per-shard *functional* roles (which hv
// operations each shard class performs) — and serves the generated
// CAPMANIFEST.json artifact that `cmd/xoarlint -capmanifest` derives from
// those inputs plus the privilege matrix. Boot profiles and seceval consume
// the manifest, never hand-written Hyper* lists: the privilege a shard is
// granted is exactly the privilege the static analysis proves its declared
// operations demand.
package capability

import "xoar/internal/xtypes"

// Ring classifies one hypercall's hardware-privilege need, the §7.1
// future-work split: "splitting the hypervisor into a privileged and
// non-privileged component, which run in different hardware protection
// rings."
type Ring uint8

const (
	// Ring0 operations manipulate hardware state directly: page tables,
	// interrupt routing, I/O ports, device assignment.
	Ring0 Ring = iota
	// Deprivileged operations "function correctly even when run in a lower
	// privileged hardware protection domain" (§7.1): domain management,
	// registry plumbing, profiling, policy bookkeeping.
	Deprivileged
)

func (r Ring) String() string {
	if r == Ring0 {
		return "ring0"
	}
	return "deprivileged"
}

// rings is the per-hypercall classification. TestRingClassificationCovers-
// AllHypercalls (and capgen, at generation time) require an explicit entry
// for every xtypes.Hyper* constant — a newly added hypercall fails tier-1
// until it is classified here, instead of silently defaulting.
var rings = map[xtypes.Hypercall]Ring{
	// Ring-0: memory, interrupts, ports, devices, snapshots of memory.
	xtypes.HyperMapForeign:      Ring0,
	xtypes.HyperGrantTableOp:    Ring0,
	xtypes.HyperEvtchnOp:        Ring0,
	xtypes.HyperPhysdevOp:       Ring0,
	xtypes.HyperAssignDevice:    Ring0,
	xtypes.HyperSetVIRQ:         Ring0,
	xtypes.HyperIOPortAccess:    Ring0,
	xtypes.HyperVMSnapshot:      Ring0,
	xtypes.HyperVMRollback:      Ring0,
	xtypes.HyperMemoryOpOwn:     Ring0,
	xtypes.HyperSetTimerOp:      Ring0,
	xtypes.HyperVCPUOp:          Ring0,
	xtypes.HyperDebugOp:         Ring0,
	xtypes.HyperSchedOp:         Ring0,
	xtypes.HyperConsoleIO:       Ring0,
	xtypes.HyperReadConsoleRing: Ring0,

	// Deprivilegeable: management-plane calls whose work is bookkeeping.
	xtypes.HyperDomctlCreate:     Deprivileged,
	xtypes.HyperDomctlDestroy:    Deprivileged,
	xtypes.HyperDomctlPause:      Deprivileged,
	xtypes.HyperDomctlUnpause:    Deprivileged,
	xtypes.HyperDomctlMaxMem:     Deprivileged,
	xtypes.HyperDomctlPriv:       Deprivileged,
	xtypes.HyperDelegateAdmin:    Deprivileged,
	xtypes.HyperSetParentTool:    Deprivileged,
	xtypes.HyperSetRestartPolicy: Deprivileged,
	xtypes.HyperProfilingOp:      Deprivileged,
	xtypes.HyperXenVersion:       Deprivileged,
}

// RingOf returns the explicit ring classification of a hypercall. The
// second result is false for unclassified calls; callers choose their own
// conservative default, and the tier-1 exhaustiveness test keeps that
// branch dead.
func RingOf(h xtypes.Hypercall) (Ring, bool) {
	r, ok := rings[h]
	return r, ok
}

// Shard role names, the manifest keys boot profiles look up.
const (
	RoleBootstrapper = "bootstrapper"
	RoleBuilder      = "builder"
	RoleConsole      = "console"
	RolePCIBack      = "pciback"
	RoleNetBack      = "netback"
	RoleBlkBack      = "blkback"
	RoleToolstack    = "toolstack"
)

// GrantRationale is a whitelist entry that no hv dispatch entry point
// demands — privileges enforced elsewhere (device assignment rides
// AssignPrivileges; restart policy is checked by snapshot.Engine.Manage).
// Each carries its justification into the generated manifest, where it is
// the only kind of grant without a derivation from the privilege matrix.
type GrantRationale struct {
	Hypercall xtypes.Hypercall
	Why       string
}

// Role declares what one shard class *does*: the hv entry points it
// invokes. capgen resolves each operation against the privilege matrix rows
// privflow generated and unions the demanded Hyper* constants into the
// shard's grant set — the whitelist is derived, not asserted. Ops must name
// non-exempt PRIVMATRIX entry points; typos fail generation.
type Role struct {
	Name string
	Doc  string
	// Ops are the hv entry points this shard invokes; the matrix maps them
	// to the privileges the grant set must contain.
	Ops []string
	// NonHV are whitelist entries enforced outside hv dispatch, with the
	// rationale the manifest records.
	NonHV []GrantRationale
	// IOPorts are the named I/O-port ranges the shard drives.
	IOPorts []string
}

// nonHVAssignDevice and nonHVRestartPolicy are the two grants enforced
// outside the hypervisor's dispatch surface in this model, by
// hv.Hypervisor.AssignPrivileges and snapshot.Engine.Manage. Each Why names
// its enforcer; TestNonHVEnforcersAreLive checks that the name resolves to
// a function with a non-test caller.
var (
	nonHVAssignDevice = GrantRationale{
		Hypercall: xtypes.HyperAssignDevice,
		Why:       "device assignment rides AssignPrivileges (HyperDomctlPriv); no separate hv dispatch entry",
	}
	nonHVRestartPolicy = GrantRationale{
		Hypercall: xtypes.HyperSetRestartPolicy,
		Why:       "restart policy is audited by snapshot.Engine.Manage against this whitelist and the shard's delegation, not by hv dispatch",
	}
)

// Roles is the declarative shard inventory, Table 3.1's rows. The
// Bootstrapper and Builder share the domain-building operation set (§5.2:
// the Bootstrapper constructs the boot-time service shards directly, before
// the Builder serves); the Builder keeps it for the lifetime of the system
// and adds snapshot enrollment for the shards it microreboots.
var Roles = []Role{
	{
		Name: RoleBootstrapper,
		Doc:  "boots the service shards directly, then self-destructs (§5.2, §5.8)",
		Ops: []string{
			"AssignPrivileges", "CreateDomain", "Delegate", "DestroyDomain",
			"GrantIOPorts", "MapForeign", "Pause", "RouteHardwareVIRQ",
			"SetMaxMem", "SetParentTool", "Unpause", "VMRollback",
		},
		NonHV: []GrantRationale{nonHVAssignDevice, nonHVRestartPolicy},
	},
	{
		Name: RoleBuilder,
		Doc:  "the single fully-privileged component left after boot (§6.2): builds, scrubs and microreboots domains",
		Ops: []string{
			"AssignPrivileges", "CreateDomain", "Delegate", "DestroyDomain",
			"GrantIOPorts", "MapForeign", "Pause", "RevokeHypercall",
			"SetMaxMem", "SetParentTool", "Unpause", "VMRollback",
			"VMSnapshot",
		},
		NonHV: []GrantRationale{nonHVAssignDevice, nonHVRestartPolicy},
	},
	{
		Name:    RoleConsole,
		Doc:     "serial console shard: owns the console ports and its input VIRQ",
		Ops:     []string{"RouteHardwareVIRQ"},
		IOPorts: []string{"console"},
	},
	{
		Name:    RolePCIBack,
		Doc:     "PCI bus enumeration at boot; destroyed afterwards (§5.3) — port access only, no hypercall grants",
		IOPorts: []string{"pci"},
	},
	{
		Name: RoleNetBack,
		Doc:  "network driver domain: snapshot-enrolled for microreboots, no management rights",
		Ops:  []string{"RegisterRecoveryBox", "VMSnapshot"},
	},
	{
		Name: RoleBlkBack,
		Doc:  "block driver domain: snapshot-enrolled for microreboots, no management rights",
		Ops:  []string{"RegisterRecoveryBox", "VMSnapshot"},
	},
	{
		Name: RoleToolstack,
		Doc:  "guest management shard: lifecycle of its own guests plus live-migration memory copies",
		Ops: []string{
			"Delegate", "DestroyDomain", "MapForeign", "Pause",
			"SetMaxMem", "UnmapForeign", "Unpause",
		},
	},
}

// roleByName returns the declared role, if any.
func roleByName(name string) (Role, bool) {
	for _, r := range Roles {
		if r.Name == name {
			return r, true
		}
	}
	return Role{}, false
}
