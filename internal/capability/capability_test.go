package capability

import (
	"testing"

	"xoar/internal/xtypes"
)

// TestEmbeddedManifestMatchesRoles pins the embedded artifact to the role
// inventory: every declared role has a shard entry and vice versa, every
// grant decodes to a real hypercall, and only privileged hypercalls appear
// as grants (ambient calls need no whitelist entry).
func TestEmbeddedManifestMatchesRoles(t *testing.T) {
	m := embedded
	if m == nil {
		t.Fatal("no embedded manifest")
	}
	byRole := map[string]bool{}
	for _, s := range m.Shards {
		byRole[s.Role] = true
		if _, ok := roleByName(s.Role); !ok {
			t.Errorf("manifest shard %q matches no declared role", s.Role)
		}
		for _, g := range s.Grants {
			hc, ok := xtypes.HypercallByName(g.Call)
			if !ok {
				t.Errorf("shard %q grant %q: wire name %q does not decode", s.Role, g.Hypercall, g.Call)
				continue
			}
			if !hc.Privileged() {
				t.Errorf("shard %q grants unprivileged hypercall %v", s.Role, hc)
			}
			if g.Ring != Ring0.String() && g.Ring != Deprivileged.String() {
				t.Errorf("shard %q grant %q: unknown ring %q", s.Role, g.Hypercall, g.Ring)
			}
			if len(g.Ops) == 0 && g.Rationale == "" {
				t.Errorf("shard %q grant %q has neither deriving ops nor a rationale", s.Role, g.Hypercall)
			}
		}
	}
	for _, r := range Roles {
		if !byRole[r.Name] {
			t.Errorf("declared role %q has no manifest shard", r.Name)
		}
	}
}

// TestSurfaceTotalsConsistent recomputes each shard's surface summary from
// its grant list.
func TestSurfaceTotalsConsistent(t *testing.T) {
	for _, s := range embedded.Shards {
		ring0, risk := 0, 0
		for _, g := range s.Grants {
			if g.Ring == Ring0.String() {
				ring0++
			}
			risk += g.Risk
		}
		if s.Surface.Grants != len(s.Grants) || s.Surface.Ring0Grants != ring0 || s.Surface.RiskTotal != risk {
			t.Errorf("%s: surface {grants=%d ring0=%d risk=%d}, recomputed {%d %d %d}",
				s.Role, s.Surface.Grants, s.Surface.Ring0Grants, s.Surface.RiskTotal, len(s.Grants), ring0, risk)
		}
	}
}

// TestNonHVGrantsAreTheRationaleGrants ties the seceval denial-table
// exemption set to the role declarations.
func TestNonHVGrantsAreTheRationaleGrants(t *testing.T) {
	got := NonHVGrants()
	want := map[xtypes.Hypercall]bool{}
	for _, r := range Roles {
		for _, nh := range r.NonHV {
			want[nh.Hypercall] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("NonHVGrants = %v, want %v", got, want)
	}
	for hc := range want {
		if !got[hc] {
			t.Errorf("NonHVGrants missing %v", hc)
		}
	}
}

// TestHypercallsReturnsCopies guards the accessor against callers mutating
// the embedded whitelist.
func TestHypercallsReturnsCopies(t *testing.T) {
	a := Hypercalls(RoleToolstack)
	if len(a) == 0 {
		t.Fatal("toolstack manifest has no grants")
	}
	a[0] = xtypes.NumHypercalls
	if b := Hypercalls(RoleToolstack); b[0] == xtypes.NumHypercalls {
		t.Fatal("Hypercalls returned shared backing storage")
	}
}
