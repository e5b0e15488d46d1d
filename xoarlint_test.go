package xoar

// This test wires xoarlint into tier-1: `go test ./...` fails on any
// violation of the statically enforced invariants (see internal/xoarlint
// and the "Statically enforced invariants" section of DESIGN.md), so the
// linter cannot drift out of CI or local workflows.

import (
	"bytes"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"xoar/internal/capability"
	"xoar/internal/xoarlint"
	"xoar/internal/xtypes"
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

// Reasons an exported internal/ function may lack a non-test caller.
const (
	keepTeardown = "ROADMAP item 1 gives it a caller: teardown hypercalls and the leak census"
	keepHot      = "//xoarlint:hot root pinned by HOTPATH.json and a bench-diff allocs cross-check"
	keepGauge    = "the only constructor of the Gauge whose Set is a hot root; metricnames checks its name argument"
	keepEntry    = "hv entry point: a row of PRIVMATRIX.json"
	keepDrift    = "drift-gate helper: the artifact tests in xoarlint_test.go decode and diff with it"
	keepBench    = "gated benchmark entry point: bench_test.go runs it under make bench-diff"
	keepObserved = "read by the tests of another package, which an unexported name would not reach"
)

// apiCallerExceptions are exported internal/ functions and methods that
// TestInternalAPIHasCallers accepts without a non-test caller, each with the
// reason it stays.
var apiCallerExceptions = map[string]string{
	"xoar/internal/evtchn.Table.Close":            keepTeardown,
	"xoar/internal/grant.Table.ActiveEntries":     keepTeardown,
	"xoar/internal/grant.Table.EndAccess":         keepTeardown,
	"xoar/internal/grant.Table.GranteesOf":        keepTeardown,
	"xoar/internal/ring.Ring.PopResponseBatch":    keepHot,
	"xoar/internal/ring.Ring.PushRequestBatch":    keepHot,
	"xoar/internal/ring.Ring.TryPopRequestBatch":  keepHot,
	"xoar/internal/ring.Ring.TryPopResponseBatch": keepHot,
	"xoar/internal/telemetry.Gauge.Set":           keepHot,
	"xoar/internal/telemetry.Registry.Gauge":      keepGauge,
	"xoar/internal/hv.Hypervisor.EvtchnNotify":    keepEntry,
	"xoar/internal/capability.DecodeManifest":     keepDrift,
	"xoar/internal/capability.DiffManifests":      keepDrift,
	"xoar/internal/xoarlint.DecodePrivMatrix":     keepDrift,
	"xoar/internal/xoarlint.DiffHotPath":          keepDrift,
	"xoar/internal/xoarlint.DiffPrivMatrices":     keepDrift,
	"xoar/internal/experiments.Saturation":        keepBench,
	"xoar/internal/experiments.TxBatching":        keepBench,
	"xoar/internal/blkdrv.Backend.Serving":        keepObserved,
	"xoar/internal/blkdrv.Frontend.Connected":     keepObserved,
	"xoar/internal/blkdrv.Frontend.Queues":        keepObserved,
	"xoar/internal/capability.NonHVGrants":        keepObserved,
	"xoar/internal/cluster.Host.GuestCount":       keepObserved,
	"xoar/internal/consolemgr.Manager.Consoles":   keepObserved,
	"xoar/internal/consolemgr.Manager.Serving":    keepObserved,
	"xoar/internal/evtchn.Table.SetHandler":       keepObserved,
	"xoar/internal/hw.NewMachine":                 keepObserved,
	"xoar/internal/hw.PCIBus.ConfigOwner":         keepObserved,
	"xoar/internal/hw.Serial.Log":                 keepObserved,
	"xoar/internal/mm.DomainMem.SnapEpoch":        keepObserved,
	"xoar/internal/mm.Manager.MappersOf":          keepObserved,
	"xoar/internal/netdrv.Backend.Serving":        keepObserved,
	"xoar/internal/netdrv.Backend.WatchAndServe":  keepObserved,
	"xoar/internal/netdrv.Frontend.Queues":        keepObserved,
	"xoar/internal/seceval.CapabilityProbe.Clean": keepObserved,
	"xoar/internal/sim.Env.RunAll":                keepObserved,
	"xoar/internal/telemetry.Histogram.Count":     keepObserved,
	"xoar/internal/telemetry.Histogram.Sum":       keepObserved,
}

// inTest reports whether pos lies in one of p's _test.go files.
func inTest(p *xoarlint.Package, pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// nonTestUses returns the module's objects that have a non-test use outside
// the file declaring them. A method that implements an interface the module
// uses — or fmt.Stringer, which fmt calls — counts as used through it, as
// does a method promoted into a type that does.
func nonTestUses(pkgs []*xoarlint.Package) map[types.Object]bool {
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if imp.Path() == "fmt" {
				addIface(imp.Scope().Lookup("Stringer").Type())
			}
		}
		for id, obj := range p.Info.Uses {
			if inTest(p, id.Pos()) {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				params := fn.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					addIface(params.At(i).Type())
				}
			}
			if obj.Pkg() != nil && p.Fset.Position(id.Pos()).Filename != p.Fset.Position(obj.Pos()).Filename {
				used[obj] = true
			}
		}
		for e, tv := range p.Info.Types {
			if tv.Type != nil && !inTest(p, e.Pos()) {
				addIface(tv.Type)
			}
		}
	}
	// Calls through an interface reach every method that implements it.
	for _, p := range pkgs {
		if strings.HasSuffix(p.Name, "_test") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || inTest(p, tn.Pos()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue
			}
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				for it := range ifaces {
					if !types.Implements(typ, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						obj, _, _ := types.LookupFieldOrMethod(typ, false, tn.Pkg(), it.Method(i).Name())
						used[obj] = true
					}
				}
			}
		}
	}
	return used
}

// TestInternalAPIHasCallers fails when an exported function or method in
// internal/ has no non-test use outside the file that declares it (see
// nonTestUses). core is exempt: the public xoar package re-exports its
// Platform and Guest surface.
func TestInternalAPIHasCallers(t *testing.T) {
	pkgs := loadModule(t)
	used := nonTestUses(pkgs)
	var dead []string
	excused := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "xoar/internal/") || p.Path == "xoar/internal/core" || strings.HasSuffix(p.Name, "_test") {
			continue
		}
		for id, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || inTest(p, id.Pos()) || used[fn] {
				continue
			}
			name := p.Path + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				base := recv.Type()
				if ptr, ok := base.(*types.Pointer); ok {
					base = ptr.Elem()
				}
				named, ok := base.(*types.Named)
				if !ok || !named.Obj().Exported() || types.IsInterface(named) {
					continue
				}
				name = p.Path + "." + named.Obj().Name() + "." + fn.Name()
			}
			if _, ok := apiCallerExceptions[name]; ok {
				excused[name] = true
			} else {
				dead = append(dead, name)
			}
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s has no non-test caller outside its own file: delete or unexport it, or list it in apiCallerExceptions with the reason it stays", name)
	}
	for name := range apiCallerExceptions {
		if !excused[name] {
			t.Errorf("apiCallerExceptions lists %s, which is gone or has a caller now: drop the entry", name)
		}
	}
}

// nonHVEnforcers maps each grant no hv dispatch entry point demands (the
// manifest's rationale grants) to the function that enforces it, spelled as
// in apiCallerExceptions.
var nonHVEnforcers = map[xtypes.Hypercall]string{
	xtypes.HyperAssignDevice:     "xoar/internal/hv.Hypervisor.AssignPrivileges",
	xtypes.HyperSetRestartPolicy: "xoar/internal/snapshot.Engine.Manage",
}

// TestNonHVEnforcersAreLive fails when a grant enforced outside hv dispatch
// is checked only by code no booted host runs. Each capability.NonHVGrants
// hypercall must map to a function that resolves, has a non-test use
// outside its own file, is not excused by apiCallerExceptions, and is named
// by the grant's rationale.
func TestNonHVEnforcersAreLive(t *testing.T) {
	pkgs := loadModule(t)
	grants := capability.NonHVGrants()
	for hc := range grants {
		if _, ok := nonHVEnforcers[hc]; !ok {
			t.Errorf("%v is granted by rationale but nonHVEnforcers names no enforcer for it", hc)
		}
	}
	rationales := map[capability.GrantRationale]bool{}
	for _, r := range capability.Roles {
		for _, g := range r.NonHV {
			rationales[g] = true
		}
	}
	used := nonTestUses(pkgs)
	for hc, name := range nonHVEnforcers {
		if !grants[hc] {
			t.Errorf("nonHVEnforcers lists %v, which the manifest does not grant by rationale", hc)
			continue
		}
		fn := lookupFunc(pkgs, name)
		if fn == nil {
			t.Errorf("%v: enforcer %s does not resolve", hc, name)
			continue
		}
		if !used[fn] {
			t.Errorf("%v: enforcer %s has no non-test caller outside its own file", hc, name)
		}
		if _, ok := apiCallerExceptions[name]; ok {
			t.Errorf("%v: enforcer %s is excused by apiCallerExceptions", hc, name)
		}
		for g := range rationales {
			if g.Hypercall == hc && !strings.Contains(g.Why, fn.Name()) {
				t.Errorf("%v: rationale %q does not name its enforcer %s", hc, g.Why, name)
			}
		}
	}
}

// lookupFunc resolves a "path.Func" or "path.Type.Method" name against the
// module load, or returns nil.
func lookupFunc(pkgs []*xoarlint.Package, name string) *types.Func {
	slash := strings.LastIndex(name, "/")
	path, sel, ok := strings.Cut(name[slash+1:], ".")
	if !ok {
		return nil
	}
	path = name[:slash+1] + path
	for _, p := range pkgs {
		if p.Path != path || strings.HasSuffix(p.Name, "_test") {
			continue
		}
		typ, method, isMethod := strings.Cut(sel, ".")
		obj := p.Types.Scope().Lookup(typ)
		if isMethod {
			tn, ok := obj.(*types.TypeName)
			if !ok {
				return nil
			}
			obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, p.Types, method)
		}
		fn, _ := obj.(*types.Func)
		return fn
	}
	return nil
}
