package xoarlint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// privcheck enforces the paper's core mechanism (§3, §5.6): every hypercall
// entry point audits its caller. Concretely, an exported *hv.Hypervisor
// method that takes a domain ID — the hypercall surface of the model — must
// consult the privilege state via h.check (whitelist audit) or h.controls
// (management-rights audit) before touching hypervisor or domain state.
// Methods that are read-only queries, or deliberately unprivileged by the
// paper's design, are allowlisted below with their rationale.
//
// This is exactly the "forgotten audit" bug class of the §6.2 CVE study:
// the two violations privcheck found on day one (UnmapForeign and
// RegisterRecoveryBox shipping without any check) are fixed in this tree
// and regression-tested in internal/seceval.

// privcheckAllowed are exported *Hypervisor methods that legitimately skip
// the audit helpers.
var privcheckAllowed = map[string]string{
	// Read-only queries: they reveal only what the caller could observe
	// through its own hypercall results and mutate nothing.
	"Domain":     "lookup; read-only",
	"Domains":    "enumeration; read-only",
	"VIRQRoute":  "route query; read-only",
	"HasIOPorts": "port-range query; read-only",
	// InjectHardwareVIRQ models the hardware interrupt source itself, not a
	// domain-issued hypercall; it has no caller to audit.
	"InjectHardwareVIRQ": "hardware source, no caller",
	// Compute charges simulated CPU time; scheduling one's own work is the
	// unprivileged baseline of any guest.
	"Compute": "CPU accounting; unprivileged by design",
	// SelfExit is the §5.8 hypervisor modification that lets boot-time
	// components (Bootstrapper, PCIBack) destroy themselves: voluntary exit
	// is deliberately unprivileged and only ever targets the caller.
	"SelfExit": "voluntary exit; unprivileged by design (§5.8)",
}

func init() {
	Register(&Analyzer{
		Name: "privcheck",
		Doc:  "exported *hv.Hypervisor methods taking a DomID must audit the caller via h.check or h.controls",
		Run:  runPrivcheck,
	})
}

func runPrivcheck(p *Package) []Diagnostic {
	if p.Path != "xoar/internal/hv" {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		if p.Test[f] {
			continue // test helpers are not hypercall entry points
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || fn.Body == nil {
				continue
			}
			recv := receiverName(p, fn, "Hypervisor")
			if recv == "" {
				continue
			}
			if _, ok := privcheckAllowed[fn.Name.Name]; ok {
				continue
			}
			domParams := domIDFields(p, fn.Type.Params)
			if len(domParams) == 0 {
				continue
			}
			if auditsCaller(fn.Body, recv, domParams) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(fn.Name.Pos()),
				Analyzer: "privcheck",
				Message: fmt.Sprintf("hv.%s takes a caller DomID but never calls %s.check or %s.controls before acting",
					fn.Name.Name, recv, recv),
			})
		}
	}
	return diags
}

// receiverName returns the receiver identifier of a method on *typeName (or
// typeName), or "" if the receiver is a different type or anonymous.
func receiverName(p *Package, fn *ast.FuncDecl, typeName string) string {
	recv := p.Info.Defs[fn.Name].Type().(*types.Signature).Recv()
	if n := namedOf(recv.Type()); n == nil || n.Obj().Name() != typeName {
		return ""
	}
	return recv.Name()
}

// domIDFields returns the names of the parameters in params typed
// xtypes.DomID.
func domIDFields(p *Package, params *ast.FieldList) map[string]bool {
	out := map[string]bool{}
	if params == nil {
		return out
	}
	for _, field := range params.List {
		if !isNamed(p.Info.TypeOf(field.Type), xtypesPath, "DomID") {
			continue
		}
		for _, n := range field.Names {
			out[n.Name] = true
		}
	}
	return out
}

// isNamed reports whether t is the defined type path.name.
func isNamed(t types.Type, path, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// auditsCaller reports whether body contains a call recv.check(param, …) or
// recv.controls(…). For check, the first argument must be one of the
// method's own DomID parameters — auditing a constant or an unrelated
// domain is still a forgotten audit.
func auditsCaller(body *ast.BlockStmt, recv string, domParams map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || x.Name != recv {
			return true
		}
		switch sel.Sel.Name {
		case "controls":
			found = true
		case "check":
			if len(call.Args) > 0 {
				if arg, ok := call.Args[0].(*ast.Ident); ok && domParams[arg.Name] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
