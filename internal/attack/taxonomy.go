package attack

import (
	"xoar/internal/capability"
	"xoar/internal/osimage"
	"xoar/internal/sim"
	"xoar/internal/toolstack"
	"xoar/internal/xtypes"
)

// Scenario is one executable entry of the paper's §2.3 attack taxonomy: a
// compromised component (the persona), the escalation it attempts (the
// sequence), and the service shard whose blast radius the replay measures.
type Scenario struct {
	Name string
	// Class is the §2.3 attack-vector class the scenario reproduces.
	Class string
	Seq   Sequence
	// Shard selects the component whose dependent-guest exposure is
	// measured via audit.DependentsOf.
	Shard Target
}

// ScenarioResult is the per-scenario artifact row: how much the attacker
// attempted, how much the whitelists refused, and how many guests were
// inside the compromise window with and without the microreboot bound.
type ScenarioResult struct {
	Scenario    Scenario
	Attempted   int
	Denied      int
	Escalations int
	Findings    int
	// ExposedWithMR counts guests dependent on the shard during
	// [compromise, microreboot] — the §3.2.2 notification set when the
	// component is restored from its clean snapshot.
	ExposedWithMR int
	// ExposedWithoutMR extends the window to the end of the run, as on a
	// platform that never reboots the component: tenants arriving after the
	// compromise keep falling inside it.
	ExposedWithoutMR int
	// RiskTotal / Ring0Grants are the xoarlint -surface scores of the
	// compromised persona's manifest role (zero for a plain guest).
	RiskTotal   int
	Ring0Grants int
}

// taxonomy is the canonical scenario list. Together the classes cover the
// §2.3 vectors: the management API (from a shard and from a guest), the
// virtual-device backends and their IVC client surface, XenStore, the debug
// interface, foreign memory mapping, and snapshot replay.
func taxonomy() []Scenario {
	return []Scenario{
		{
			Name:  "netback-compromise",
			Class: "virtual device (net backend)",
			Shard: TNetBack,
			Seq: Sequence{Persona: PersonaNetBack, Calls: []Call{
				{Op: OpLinkClient, Target: TSelf, Arg: 1},
				{Op: OpGrant, Target: TVictimA, Arg: 3},
				{Op: OpMapGrant, Target: TVictimA, Arg: 1},
				{Op: OpEvtchnBind, Target: TVictimB, Arg: 2},
				{Op: OpMapForeign, Target: TVictimA, Arg: 8},
				{Op: OpDestroyDomain, Target: TVictimB},
				{Op: OpVMSnapshot, Target: TSelf},
			}},
		},
		{
			Name:  "blkback-compromise",
			Class: "virtual device (block backend)",
			Shard: TBlkBack,
			Seq: Sequence{Persona: PersonaBlkBack, Calls: []Call{
				{Op: OpMapGrant, Target: TVictimA, Arg: 11},
				{Op: OpMapGrant, Target: TVictimB, Arg: 14},
				{Op: OpEvtchnAlloc, Target: TToolstack},
				{Op: OpVMSnapshot, Target: TSelf},
				{Op: OpVMRollback, Target: TSelf},
				{Op: OpUnlinkClient, Target: TSelf, Arg: 1},
			}},
		},
		{
			Name:  "toolstack-compromise",
			Class: "management API (toolstack shard)",
			Shard: TToolstack,
			Seq: Sequence{Persona: PersonaToolstack, Calls: []Call{
				{Op: OpControlAll, Target: TSelf},
				{Op: OpPermitHypercall, Target: TSelf, Arg: 13},
				{Op: OpDebugOp, Target: TSelf},
				{Op: OpMapForeign, Target: TBuilder, Arg: 2},
				{Op: OpAssignDevice, Target: TSelf},
				{Op: OpPause, Target: TVictimA},
				{Op: OpUnpause, Target: TVictimA},
				{Op: OpSetMaxMem, Target: TVictimB, Arg: 4},
			}},
		},
		{
			Name:  "guest-management-probe",
			Class: "management API (from guest)",
			Shard: TNetBack,
			Seq: Sequence{Persona: PersonaGuest, Calls: []Call{
				{Op: OpControlAll, Target: TSelf},
				{Op: OpPermitHypercall, Target: TSelf, Arg: 13},
				{Op: OpCreateDomain, Target: TSelf},
				{Op: OpDestroyDomain, Target: TNetBack},
				{Op: OpMapForeign, Target: TVictimA, Arg: 5},
				{Op: OpMapForeign, Target: TBogus, Arg: 5},
				{Op: OpSetMaxMem, Target: TVictimB, Arg: 20},
			}},
		},
		{
			Name:  "guest-ivc-sweep",
			Class: "virtual device client (IVC sharing policy)",
			Shard: TNetBack,
			Seq: Sequence{Persona: PersonaGuest, Calls: []Call{
				{Op: OpGrant, Target: TVictimA},
				{Op: OpGrant, Target: TVictimB},
				{Op: OpMapGrant, Target: TVictimA, Arg: 6},
				{Op: OpEvtchnAlloc, Target: TVictimB},
				{Op: OpEvtchnBind, Target: TVictimA, Arg: 1},
				{Op: OpGrant, Target: TNetBack, Arg: 2},
			}},
		},
		{
			Name:  "xenstore-poison",
			Class: "XenStore",
			Shard: TNetBack,
			Seq: Sequence{Persona: PersonaGuest, Calls: []Call{
				{Op: OpXSWrite, Target: TNetBack},
				{Op: OpXSWrite, Target: TToolstack},
				{Op: OpXSWrite, Target: TVictimA},
				{Op: OpXSWrite, Target: TSelf},
			}},
		},
		{
			Name:  "debug-interface",
			Class: "debug / hardware interface (CVE-2007-4993 class)",
			Shard: TBuilder,
			Seq: Sequence{Persona: PersonaGuest, Calls: []Call{
				{Op: OpDebugOp, Target: TSelf},
				{Op: OpGrantIOPorts, Target: TSelf, Arg: 1},
				{Op: OpRouteVIRQ, Target: TSelf, Arg: 1},
				{Op: OpAssignDevice, Target: TSelf},
			}},
		},
		{
			Name:  "rollback-replay",
			Class: "snapshot replay / microreboot race",
			Shard: TNetBack,
			Seq: Sequence{Persona: PersonaBuilder, Calls: []Call{
				{Op: OpMicroreboot, Target: TSelf},
				{Op: OpVMRollback, Target: TNetBack},
				{Op: OpPause, Target: TNetBack},
				{Op: OpUnpause, Target: TNetBack},
				{Op: OpVMRollback, Target: TBlkBack},
			}},
		},
	}
}

// shardDom resolves a scenario's measured shard to its live DomID.
func (ha *Harness) shardDom(t Target) xtypes.DomID {
	switch t {
	case TBlkBack:
		return ha.PL.BlkBacks[0].Dom
	case TBuilder:
		return ha.PL.BuilderDom
	case TToolstack:
		return ha.PL.Toolstacks[0].Dom
	default:
		return ha.PL.NetBacks[0].Dom
	}
}

// RunTaxonomy executes every scenario on a fresh platform and returns the
// per-scenario artifact. Deterministic end to end: the drift test pins the
// exact counts.
func RunTaxonomy() ([]ScenarioResult, error) {
	var out []ScenarioResult
	for _, sc := range taxonomy() {
		r, err := runScenario(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func runScenario(sc Scenario) (ScenarioResult, error) {
	ha, err := NewHarness()
	if err != nil {
		return ScenarioResult{}, err
	}
	defer ha.Close()

	start := ha.Env.Now()
	res := ha.Run(sc.Seq)

	// Recovery: microreboot the measured shard where it is snapshot-enrolled
	// (the driver backends). Management shards are not restartable in this
	// model; for them the window simply closes at the end of the attack.
	shard := ha.shardDom(sc.Shard)
	if sc.Shard == TNetBack || sc.Shard == TBlkBack {
		eng := ha.PL.Engine
		ha.Env.Spawn("taxonomy-mr", func(p *sim.Proc) { eng.RequestRestart(p, shard) })
		ha.Env.RunFor(10 * sim.Second)
	}
	mrTime := ha.Env.Now()

	// A tenant arriving after recovery: with the microreboot bounding the
	// compromise window it is NOT in the notification set; on a platform
	// that never restores the component it is.
	var lateErr error
	ha.Env.Spawn("late-tenant", func(p *sim.Proc) {
		_, lateErr = ha.PL.Toolstacks[0].CreateVM(p, toolstack.GuestConfig{
			Name: "late-tenant", Image: osimage.ImgGuestPV, MemMB: 256,
			Net: true, Disk: true,
		})
	})
	ha.Env.RunFor(60 * sim.Second)
	if lateErr != nil {
		return ScenarioResult{}, lateErr
	}
	end := ha.Env.Now()

	r := ScenarioResult{
		Scenario:         sc,
		Attempted:        res.Attempted,
		Denied:           res.Denied,
		Findings:         len(res.Findings),
		ExposedWithMR:    len(ha.Log.DependentsOf(shard, start, mrTime)),
		ExposedWithoutMR: len(ha.Log.DependentsOf(shard, start, end)),
	}
	for _, f := range res.Findings {
		if f.Kind == KindEscalation {
			r.Escalations++
		}
	}
	if role := sc.Seq.Persona.Role(); role != "" {
		if sm, ok := capability.Lookup(role); ok {
			r.RiskTotal = sm.Surface.RiskTotal
			r.Ring0Grants = sm.Surface.Ring0Grants
		}
	}
	return r, nil
}
