package xoar

// This test wires xoarlint into tier-1: `go test ./...` fails on any
// violation of the statically enforced invariants (see internal/xoarlint
// and the "Statically enforced invariants" section of DESIGN.md), so the
// linter cannot drift out of CI or local workflows.

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"xoar/internal/capability"
	"xoar/internal/xoarlint"
)

// modulePkgs type-checks the module once per test binary; every test below
// analyzes the same load.
var modulePkgs = sync.OnceValues(func() ([]*xoarlint.Package, error) {
	return xoarlint.LoadModule(".")
})

func loadModule(t *testing.T) []*xoarlint.Package {
	t.Helper()
	pkgs, err := modulePkgs()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	return pkgs
}

func TestXoarlintModuleClean(t *testing.T) {
	pkgs := loadModule(t)
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, d := range xoarlint.RunAll(pkgs) {
		t.Errorf("%s", d)
	}
}

// TestPrivMatrixDrift pins PRIVMATRIX.json — the generated map of which
// privilege each hypervisor entry point demands and what state it touches
// — to the source. Any change to hv's privilege surface must regenerate
// the artifact, which puts the widened/narrowed surface in the diff where
// reviewers can see it.
func TestPrivMatrixDrift(t *testing.T) {
	checked, err := os.ReadFile("PRIVMATRIX.json")
	if err != nil {
		t.Fatalf("reading checked-in matrix: %v (regenerate with: make matrix)", err)
	}
	pkgs := loadModule(t)
	built, err := xoarlint.BuildPrivMatrix(pkgs)
	if err != nil {
		t.Fatalf("building matrix: %v", err)
	}
	enc, err := built.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(checked, enc) {
		return
	}
	old, err := xoarlint.DecodePrivMatrix(checked)
	if err != nil {
		t.Fatalf("PRIVMATRIX.json does not parse: %v (regenerate with: make matrix)", err)
	}
	diff := xoarlint.DiffPrivMatrices(old, built)
	if len(diff) == 0 {
		diff = []string{"(formatting only)"}
	}
	t.Errorf("PRIVMATRIX.json is stale — hv's privilege surface changed:\n  %s\nregenerate with: make matrix",
		strings.Join(diff, "\n  "))
}

// TestCapManifestDrift pins internal/capability/CAPMANIFEST.json — the
// per-shard grant sets every boot whitelist is built from — to its
// derivation (privilege matrix × role declarations × ring classification).
// A change to hv's audits, the shard roles, or the ring map must regenerate
// the manifest, surfacing the privilege delta in review.
func TestCapManifestDrift(t *testing.T) {
	checked, err := os.ReadFile("internal/capability/CAPMANIFEST.json")
	if err != nil {
		t.Fatalf("reading checked-in manifest: %v (regenerate with: make capmanifest)", err)
	}
	pkgs := loadModule(t)
	built, err := xoarlint.BuildCapManifest(pkgs)
	if err != nil {
		t.Fatalf("building manifest: %v", err)
	}
	enc, err := built.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(checked, enc) {
		return
	}
	old, err := capability.DecodeManifest(checked)
	if err != nil {
		t.Fatalf("CAPMANIFEST.json does not parse: %v (regenerate with: make capmanifest)", err)
	}
	diff := capability.DiffManifests(old, built)
	if len(diff) == 0 {
		diff = []string{"(formatting only)"}
	}
	t.Errorf("CAPMANIFEST.json is stale — the derived grant sets changed:\n  %s\nregenerate with: make capmanifest",
		strings.Join(diff, "\n  "))
}

// TestHotPathDrift pins HOTPATH.json — the generated hot-path allocation
// artifact: every //xoarlint:hot root with its declared allocs/op budget
// and the functions reachable from it — to the source. Severing an
// annotation, adding a call into a hot loop, or changing a budget must
// regenerate the artifact, so the data-path delta lands in the diff where
// reviewers can see it (and bench-diff re-checks the budgets against
// measured -benchmem numbers).
func TestHotPathDrift(t *testing.T) {
	checked, err := os.ReadFile("HOTPATH.json")
	if err != nil {
		t.Fatalf("reading checked-in hot-path artifact: %v (regenerate with: make hotpath)", err)
	}
	pkgs := loadModule(t)
	built := xoarlint.BuildHotPath(pkgs)
	if len(built.Roots) == 0 {
		t.Fatal("no //xoarlint:hot roots found — the data-path annotations were severed")
	}
	enc := built.EncodeJSON()
	if bytes.Equal(checked, enc) {
		return
	}
	old, err := xoarlint.DecodeHotPath(checked)
	if err != nil {
		t.Fatalf("HOTPATH.json does not parse: %v (regenerate with: make hotpath)", err)
	}
	diff := xoarlint.DiffHotPath(old, built)
	if len(diff) == 0 {
		diff = []string{"(formatting only)"}
	}
	t.Errorf("HOTPATH.json is stale — the hot-path surface changed:\n  %s\nregenerate with: make hotpath",
		strings.Join(diff, "\n  "))
}

// TestArtifactDeterminism generates the golden artifacts twice from the
// module load and requires byte identity, so the drift gates above can
// never flake on map iteration order in the passes.
func TestArtifactDeterminism(t *testing.T) {
	gen := func() ([]byte, []byte, []byte) {
		pkgs := loadModule(t)
		m, err := xoarlint.BuildPrivMatrix(pkgs)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := m.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		c, err := xoarlint.BuildCapManifest(pkgs)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := c.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		hb := xoarlint.BuildHotPath(pkgs).EncodeJSON()
		return mb, cb, hb
	}
	m1, c1, h1 := gen()
	m2, c2, h2 := gen()
	if !bytes.Equal(m1, m2) {
		t.Error("two -matrix generations differ byte-wise")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("two -capmanifest generations differ byte-wise")
	}
	if !bytes.Equal(h1, h2) {
		t.Error("two -hotpath generations differ byte-wise")
	}
}
