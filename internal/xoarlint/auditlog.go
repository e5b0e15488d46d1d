package xoarlint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// auditlog enforces the §3.2.2 forensic property: the hash-chained audit
// log must witness every change to the privilege topology. A hypercall
// entry point that mutates lifecycle or privilege state — domain tables,
// VIRQ routes, parent-toolstack/delegation/client links, whitelists,
// port grants — without (transitively) appending an event via h.emit is
// invisible to the off-host log: queries like DependentsOf answer from
// stale state and the "notify affected customers" workflow silently lies.
//
// Emission is detected structurally, end to end: an event leaves the
// hypervisor through a func-typed Hypervisor field that accepts the audit
// Event (h.Sink) — the subscriber wiring the log attaches to. A method
// emits if it (transitively) calls through such a sink field; h.emit is
// credited because its body performs the Sink call, not because of its
// name, so severing the emit→Sink wiring re-flags every entry point that
// relied on it.
//
// The check is interprocedural but presence-level (privflow owns
// ordering): the entry point, or some helper it calls, must emit. Pure
// data-path mutations (grant/evtchn tables, memory, Mem images) are out
// of scope — they are high-rate and the paper logs topology changes, not
// traffic. On its first run this pass found four real gaps, fixed in
// internal/hv and regression-tested in internal/seceval:
// UnlinkShardClient (the log's own linkIntervals parser already handled
// "unlink-shard" records no one emitted, so DependentsOf overcounted
// exposure windows), SetParentTool, GrantIOPorts and RouteHardwareVIRQ.

// auditlogDomainFields are *Domain fields whose mutation changes the
// privilege topology and therefore must be logged.
var auditlogDomainFields = map[string]bool{
	"State":         true,
	"parentTool":    true,
	"delegates":     true,
	"privilegedFor": true,
	"clients":       true,
	"priv":          true,
	"ioPorts":       true,
	"Cfg":           true,
}

// auditlogHVFields are the *Hypervisor fields in scope.
var auditlogHVFields = map[string]bool{
	"domains":    true,
	"virqRoutes": true,
}

func init() {
	Register(&Analyzer{
		Name: "auditlog",
		Doc:  "hv entry points mutating lifecycle/privilege state must append a hash-chained audit event through the Hypervisor's Event sink",
		Run:  runAuditlog,
	})
}

type auditSummary struct {
	mutates map[string]bool
	emits   bool
}

func runAuditlog(p *Package) []Diagnostic {
	if p.Path != hvPath {
		return nil
	}
	methods := hypervisorMethods(p)
	sinks := sinkFields(p)
	memo := map[string]*auditSummary{}
	var order []string
	for name, m := range methods {
		if m.fn.Name.IsExported() && len(m.dom) > 0 {
			order = append(order, name)
		}
	}
	sort.Strings(order)
	var diags []Diagnostic
	for _, name := range order {
		s := auditScan(methods, sinks, memo, name, map[string]bool{})
		if len(s.mutates) > 0 && !s.emits {
			m := methods[name]
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(m.fn.Name.Pos()),
				Analyzer: "auditlog",
				Message: fmt.Sprintf("hv.%s mutates lifecycle/privilege state (%s) without appending an audit event through %s's Event sink",
					name, strings.Join(sortedKeys(s.mutates), ", "), m.recv),
			})
		}
	}
	return diags
}

// sinkFields collects the Hypervisor struct's func-typed fields taking the
// audit Event — the structural signature of an audit-log sink. Calling
// through one of them is what counts as emitting.
func sinkFields(p *Package) map[string]bool {
	out := map[string]bool{}
	tn, _ := p.Types.Scope().Lookup("Hypervisor").(*types.TypeName)
	if tn == nil {
		return out
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return out
	}
	for i := 0; i < st.NumFields(); i++ {
		sig, ok := st.Field(i).Type().(*types.Signature)
		for j := 0; ok && j < sig.Params().Len(); j++ {
			if isNamed(sig.Params().At(j).Type(), p.Types.Path(), "Event") {
				out[st.Field(i).Name()] = true
			}
		}
	}
	return out
}

// auditScan computes, memoized and cycle-safe, which lifecycle state a
// method (transitively) mutates and whether it (transitively) emits
// through a sink field.
func auditScan(methods map[string]*hvMethod, sinks map[string]bool, memo map[string]*auditSummary, name string, visiting map[string]bool) *auditSummary {
	if s, ok := memo[name]; ok {
		return s
	}
	m := methods[name]
	s := &auditSummary{mutates: map[string]bool{}}
	if m == nil || visiting[name] {
		return s
	}
	visiting[name] = true
	defer delete(visiting, name)

	record := func(e ast.Expr) {
		chain, ok := flattenChain(e)
		if !ok || len(chain) < 2 {
			return
		}
		if chain[0] == m.recv {
			// A write through the domain table to a Domain field
			// (h.domains[id].State = …) is a Domain mutation; a write
			// to the table itself (h.domains[id] = …, delete) is not.
			if last := chain[len(chain)-1]; len(chain) > 2 && auditlogDomainFields[last] {
				s.mutates["Domain."+last] = true
			} else if auditlogHVFields[chain[1]] {
				s.mutates[chain[1]] = true
			}
			return
		}
		if auditlogDomainFields[chain[1]] {
			s.mutates["Domain."+chain[1]] = true
		}
	}
	ast.Inspect(m.fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, l := range v.Lhs {
				if _, isIdent := l.(*ast.Ident); !isIdent {
					record(l)
				}
			}
		case *ast.IncDecStmt:
			record(v.X)
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "delete" && len(v.Args) > 0 {
				record(v.Args[0])
				return true
			}
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok || x.Name != m.recv {
				return true
			}
			if sinks[sel.Sel.Name] {
				s.emits = true
				return true
			}
			if _, isHelper := methods[sel.Sel.Name]; isHelper && sel.Sel.Name != name {
				sub := auditScan(methods, sinks, memo, sel.Sel.Name, visiting)
				for k := range sub.mutates {
					s.mutates[k] = true
				}
				if sub.emits {
					s.emits = true
				}
			}
		}
		return true
	})
	memo[name] = s
	return s
}
