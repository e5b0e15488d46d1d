package xoarlint

import (
	"strings"
	"testing"
)

// privflowSrc exercises the dominance analysis: the clean idioms used by
// internal/hv, plus the audit-ordering bugs that a syntactic "is there an
// audit call somewhere?" check misses.
const privflowSrc = `package hv

import "xoar/internal/xtypes"

type Domain struct {
	State   int
	clients map[xtypes.DomID]bool
}

type Hypervisor struct {
	domains     map[xtypes.DomID]*Domain
	DeniedCalls int
}

func (h *Hypervisor) check(caller xtypes.DomID, hc xtypes.Hypercall) (*Domain, error) {
	return nil, nil
}
func (h *Hypervisor) controls(caller xtypes.DomID, d *Domain) bool { return true }

// requirePriv is the hoisted audit-helper pattern: check and enforce.
func (h *Hypervisor) requirePriv(caller xtypes.DomID, hc xtypes.Hypercall) error {
	if _, err := h.check(caller, hc); err != nil {
		return err
	}
	return nil
}

func (h *Hypervisor) reap(d *Domain) { d.State = 9 }

// Guard dominates the mutation: clean.
func (h *Hypervisor) Pause(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
		return err
	}
	h.domains[target].State = 1
	return nil
}

// Management audit via the bool primitive: clean.
func (h *Hypervisor) Link(caller, shard, guest xtypes.DomID) error {
	d := h.domains[shard]
	if !h.controls(caller, d) {
		return nil
	}
	d.clients[guest] = true
	return nil
}

// Audit hoisted into a helper and enforced by the caller: clean, and the
// helper's specific privilege must land in the matrix.
func (h *Hypervisor) ViaHelper(caller, target xtypes.DomID) error {
	if err := h.requirePriv(caller, xtypes.HyperDomctlCreate); err != nil {
		return err
	}
	h.reap(h.domains[target])
	return nil
}

// Audit after the mutation: has an audit call, still caught.
func (h *Hypervisor) LateAudit(caller, target xtypes.DomID) error {
	h.domains[target].State = 2
	if _, err := h.check(caller, xtypes.HyperDomctlPause); err != nil {
		return err
	}
	return nil
}

// Audit on one branch only: has an audit call, still caught.
func (h *Hypervisor) BranchAudit(caller, target xtypes.DomID, hard bool) error {
	if hard {
		if _, err := h.check(caller, xtypes.HyperDomctlDestroy); err != nil {
			return err
		}
	}
	h.domains[target].State = 3
	return nil
}

// Audit result dropped on the floor: never enforced, caught by privflow.
func (h *Hypervisor) Dropped(caller, target xtypes.DomID) error {
	_, _ = h.check(caller, xtypes.HyperDomctlPause)
	h.domains[target].State = 4
	return nil
}

// Mutation buried in an unaudited helper: caught, with the path reported.
func (h *Hypervisor) BadViaHelper(caller, target xtypes.DomID) error {
	h.reap(h.domains[target])
	return nil
}

// The privilege must be a specific constant, not a variable.
func (h *Hypervisor) Dynamic(caller xtypes.DomID, hc xtypes.Hypercall) error {
	if _, err := h.check(caller, hc); err != nil {
		return err
	}
	return nil
}

// Allowlisted entry point: exempt row in the matrix.
func (h *Hypervisor) Compute(caller xtypes.DomID) {}
`

func TestPrivflowDominance(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowSrc)
	diags := diagsOf(t, "privflow", p)
	wantDiags(t, diags,
		"hv.BadViaHelper: mutation of Domain.State is not dominated", // in reap, early in the file
		"hv.LateAudit: mutation of domains is not dominated",
		"hv.BranchAudit: mutation of domains is not dominated",
		"hv.Dropped: mutation of domains is not dominated",
		"must name a specific xtypes.Hyper* constant",
	)
	if !strings.Contains(diags[0].Message, "reached via reap") {
		t.Errorf("helper-path diagnostic lacks the inline chain: %q", diags[0].Message)
	}
}

// TestPrivflowCatchesWhatPrivcheckMisses pins why privflow replaced the
// syntactic privcheck pass. The ordering bugs (audit after mutation, audit
// on one branch, dropped verdict) all contain an audit call and passed
// privcheck; privcheck in turn flagged ViaHelper, whose audit is hoisted
// into a helper the caller enforces, which privflow accepts.
func TestPrivflowCatchesWhatPrivcheckMisses(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowSrc)
	caught := map[string]bool{}
	for _, d := range diagsOf(t, "privflow", p) {
		if strings.Contains(d.Message, "hv.ViaHelper") {
			t.Errorf("audit through a helper reported: %v", d)
		}
		caught[strings.SplitN(d.Message, ":", 2)[0]] = true
	}
	for _, m := range []string{"hv.LateAudit", "hv.BranchAudit", "hv.Dropped"} {
		if !caught[m] {
			t.Errorf("%s not reported; got %v", m, caught)
		}
	}
}

// unauditedSrc holds entry points that mutate nothing the dominance walk
// models, so only the never-audits rule can catch them.
const unauditedSrc = `package hv

import "xoar/internal/xtypes"

type Hypervisor struct{ DeniedCalls int }

func (h *Hypervisor) check(caller xtypes.DomID, hc xtypes.Hypercall) (*int, error) { return nil, nil }
func (h *Hypervisor) controls(caller xtypes.DomID, d *int) bool                    { return true }

// Audited: fine.
func (h *Hypervisor) Destroy(caller, target xtypes.DomID) error {
	if _, err := h.check(caller, xtypes.HyperDomctlDestroy); err != nil {
		return err
	}
	return nil
}

// Audited via controls: fine.
func (h *Hypervisor) Link(caller, shard xtypes.DomID) error {
	if !h.controls(caller, nil) {
		return nil
	}
	return nil
}

// Forgotten audit: flagged.
func (h *Hypervisor) UnmapEverything(caller, target xtypes.DomID) error {
	return nil
}

// check called on a constant, not the caller parameter: still flagged.
func (h *Hypervisor) Sneaky(caller xtypes.DomID) error {
	_, err := h.check(0, xtypes.HyperDomctlDestroy)
	return err
}

// Unexported: out of scope.
func (h *Hypervisor) internalOp(caller xtypes.DomID) {}

// No DomID parameter: out of scope.
func (h *Hypervisor) Stats() int { return h.DeniedCalls }

// Allowlisted read-only query.
func (h *Hypervisor) HasIOPorts(dom xtypes.DomID, r string) bool { return false }
`

func TestPrivflowFlagsUnauditedEntryPoint(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", unauditedSrc)
	wantDiags(t, diagsOf(t, "privflow", p), "hv.UnmapEverything", "hv.Sneaky")
}

// denySrc writes the denial counter from h.deny and from three places
// that are not h.deny.
const denySrc = `package hv

type Hypervisor struct{ DeniedCalls int }

func (h *Hypervisor) deny(err error) error {
	h.DeniedCalls++
	return err
}

func (h *Hypervisor) refuse(err error) error {
	h.DeniedCalls += 1
	return err
}

func reset(h *Hypervisor) { h.DeniedCalls = 0 }

func deny(h *Hypervisor) { h.DeniedCalls++ }

// Some other type's counter: ignored.
type stats struct{ DeniedCalls int }

func (s *stats) bump() { s.DeniedCalls++ }
`

func TestPrivflowConfinesDeniedCallsToDeny(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", denySrc)
	wantDiags(t, diagsOf(t, "privflow", p),
		"refuse writes DeniedCalls directly",
		"reset writes DeniedCalls directly",
		"deny writes DeniedCalls directly")
}

func TestPrivflowScopedToHV(t *testing.T) {
	for _, src := range []string{privflowSrc, denySrc} {
		p := loadSrc(t, "xoar/internal/other", src)
		if diags := diagsOf(t, "privflow", p); len(diags) != 0 {
			t.Fatalf("privflow fired outside internal/hv: %v", diags)
		}
	}
}

func TestPrivflowSuppression(t *testing.T) {
	src := strings.Replace(privflowSrc,
		"h.domains[target].State = 2",
		"h.domains[target].State = 2 //xoarlint:allow(privflow) mutation rolled back below on audit failure", 1)
	p := loadSrc(t, "xoar/internal/hv", src)
	diags := diagsOf(t, "privflow", p)
	for _, d := range diags {
		if strings.Contains(d.Message, "hv.LateAudit") {
			t.Fatalf("suppressed diagnostic still reported: %v", d)
		}
	}
}

// The never-audits rule was once its own syntactic pass, privcheck; the two
// tests below keep its scope and suppression cases now that privflow runs it.

func TestPrivcheckScopedToHV(t *testing.T) {
	p := loadSrc(t, "xoar/internal/other", unauditedSrc)
	if diags := diagsOf(t, "privflow", p); len(diags) != 0 {
		t.Fatalf("never-audits rule fired outside internal/hv: %v", diags)
	}
}

func TestPrivcheckSuppression(t *testing.T) {
	src := strings.Replace(unauditedSrc,
		"// Forgotten audit: flagged.",
		"//xoarlint:allow(privflow) verified audited by dispatcher in review", 1)
	p := loadSrc(t, "xoar/internal/hv", src)
	wantDiags(t, diagsOf(t, "privflow", p), "hv.Sneaky")
}

// --- privilege matrix --------------------------------------------------------

func TestPrivMatrixRows(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowSrc)
	m, err := BuildPrivMatrix([]*Package{p})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]PrivEntry{}
	for _, e := range m.Entrypoints {
		rows[e.Method] = e
	}
	via := rows["ViaHelper"]
	if len(via.Privileges) != 1 || via.Privileges[0] != "HyperDomctlCreate" {
		t.Errorf("ViaHelper privileges = %v, want [HyperDomctlCreate] (credited through requirePriv)", via.Privileges)
	}
	if !rows["Link"].Controls {
		t.Errorf("Link should record a management-rights (controls) audit")
	}
	if got := rows["Pause"].Mutates; len(got) != 1 || got[0] != "domains" {
		t.Errorf("Pause mutates = %v, want [domains]", got)
	}
	if rows["Compute"].Exempt == "" {
		t.Errorf("Compute should carry its allowlist rationale")
	}
	if len(rows) != 9 {
		t.Errorf("matrix has %d rows, want 9: %v", len(rows), sortedMatrixMethods(m))
	}
}

func TestPrivMatrixDiff(t *testing.T) {
	p := loadSrc(t, "xoar/internal/hv", privflowSrc)
	m, err := BuildPrivMatrix([]*Package{p})
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffPrivMatrices(m, m); len(d) != 0 {
		t.Fatalf("identical matrices diff: %v", d)
	}

	// Round-trip through the canonical encoding.
	enc, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePrivMatrix(enc)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffPrivMatrices(back, m); len(d) != 0 {
		t.Fatalf("round-tripped matrix diffs: %v", d)
	}

	// A widened entry point and a removed one both surface readably.
	mod := *back
	mod.Entrypoints = append([]PrivEntry{}, back.Entrypoints...)
	for i := range mod.Entrypoints {
		if mod.Entrypoints[i].Method == "Pause" {
			mod.Entrypoints[i].Privileges = []string{"HyperDomctlCreate", "HyperDomctlPause"}
		}
	}
	var kept []PrivEntry
	for _, e := range mod.Entrypoints {
		if e.Method != "Link" {
			kept = append(kept, e)
		}
	}
	mod.Entrypoints = kept
	diff := DiffPrivMatrices(&mod, m)
	if len(diff) != 2 {
		t.Fatalf("diff = %v, want 2 lines", diff)
	}
	if !strings.Contains(diff[0], "+ Link") {
		t.Errorf("diff[0] = %q, want new-entry-point line for Link", diff[0])
	}
	if !strings.Contains(diff[1], "~ Pause") || !strings.Contains(diff[1], "HyperDomctlCreate") {
		t.Errorf("diff[1] = %q, want changed line for Pause naming the extra privilege", diff[1])
	}
}

func sortedMatrixMethods(m *PrivMatrix) []string {
	var out []string
	for _, e := range m.Entrypoints {
		out = append(out, e.Method)
	}
	return out
}
