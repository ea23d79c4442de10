// Package regmem enforces the VIA memory-registration invariant: every
// buffer on the user-level data path must come from the NIC's registration
// API.
//
// The paper's OS-bypass argument (and DAFS's direct-access model, Magoutis
// et al., FAST 2002) rests on the NIC refusing DMA to unregistered memory:
// a descriptor naming an unregistered buffer is the bug class real VIA
// hardware rejects at the doorbell. In the simulation the only legitimate
// producers of a *via.Region are (*via.NIC).Register, RegisterRing (a
// message ring whose host bytes are lent per slot) and RegisterCached —
// outside internal/via a Region cannot be forged without tripping this
// pass:
//
//   - composite literals (via.Region{...}), new(via.Region), and value
//     declarations of type via.Region are reported: none of them carry a
//     NIC translation entry, so any descriptor built from them would be
//     memory the NIC never pinned;
//   - descriptors handed to the work-queue entry points (PostSend,
//     PostRecv, PrepostRecv) are traced: a Region field that is missing,
//     nil, or locally derived from a forged/nil value is reported;
//   - via.Region by value in a function signature, struct field, or
//     short variable declaration is reported. A region copy severs the
//     tie to the NIC's translation entry, and a value-typed conduit is
//     exactly how a forged region crosses a package boundary unseen: a
//     helper `func Dup(r *via.Region) via.Region { return *r }` in
//     another package contains no literal, no new, and no var spec, yet
//     hands every caller an untraceable copy. Regions travel as
//     *via.Region handles, full stop.
//
// Together with the type system (Region's fields are unexported) this
// makes "unregistered buffer on the data path" unrepresentable without a
// lint failure.
package regmem

import (
	"go/ast"
	"go/token"
	"go/types"

	"dafsio/internal/analysis"
)

const viaPath = "dafsio/internal/via"

// sinks are the (*via.VI) work-queue entry points whose descriptors reach
// NIC DMA.
var sinks = map[string]bool{
	"PostSend":    true,
	"PostRecv":    true,
	"PrepostRecv": true,
}

// Analyzer is the regmem pass.
var Analyzer = &analysis.Analyzer{
	Name: "regmem",
	Doc:  "VIA descriptors must carry memory obtained from the NIC registration API; forged or nil regions are the unregistered-DMA bug class",
	Match: func(pkgPath string) bool {
		// The via package itself implements the registration machinery.
		return pkgPath != viaPath
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	via := importedVia(pass.Pkg)
	if via == nil {
		return nil // package does not touch the VIA layer
	}
	regionType := namedType(via, "Region")
	if regionType == nil {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isType(pass, n, regionType) {
					pass.Reportf(n.Pos(), "via.Region composite literal: regions must come from (*via.NIC).Register, RegisterRing or RegisterCached, never be forged")
				}
			case *ast.CallExpr:
				if isNewRegion(pass, n, regionType) {
					pass.Reportf(n.Pos(), "new(via.Region): regions must come from (*via.NIC).Register, RegisterRing or RegisterCached, never be forged")
				}
				checkSink(pass, f, n, regionType)
			case *ast.ValueSpec:
				for _, name := range n.Names {
					checkValueDef(pass, name, regionType)
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for _, l := range n.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							checkValueDef(pass, id, regionType)
						}
					}
				}
			case *ast.FuncType:
				checkFieldList(pass, n.Params, regionType, "function signature")
				checkFieldList(pass, n.Results, regionType, "function signature")
			case *ast.StructType:
				checkFieldList(pass, n.Fields, regionType, "struct field")
			}
			return true
		})
	}
	return nil
}

// checkValueDef reports a variable definition of value type via.Region.
func checkValueDef(pass *analysis.Pass, name *ast.Ident, regionType types.Type) {
	obj := pass.TypesInfo.Defs[name]
	if obj == nil {
		return
	}
	if v, ok := obj.(*types.Var); ok && types.Identical(v.Type(), regionType) {
		pass.Reportf(name.Pos(), "variable of value type via.Region: hold *via.Region handles from the NIC registration API instead")
	}
}

// checkFieldList reports parameters, results, or struct fields whose type
// carries via.Region by value — the cross-package conduit for untraceable
// region copies.
func checkFieldList(pass *analysis.Pass, fl *ast.FieldList, regionType types.Type, where string) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		tv, ok := pass.TypesInfo.Types[f.Type]
		if !ok {
			continue
		}
		if carriesRegionValue(tv.Type, regionType) {
			pass.Reportf(f.Type.Pos(), "via.Region by value in a %s: a region copy severs NIC provenance — pass *via.Region handles from the registration API", where)
		}
	}
}

// carriesRegionValue reports whether t contains via.Region by value:
// the type itself, or reachable through slices, arrays, maps, channels, or
// pointers to those. A *via.Region handle is the sanctioned form and stops
// the walk; named element types are checked where they are declared.
func carriesRegionValue(t, regionType types.Type) bool {
	if types.Identical(t, regionType) {
		return true
	}
	switch u := t.(type) {
	case *types.Pointer:
		if types.Identical(u.Elem(), regionType) {
			return false // *via.Region: the handle regions travel as
		}
		return carriesRegionValue(u.Elem(), regionType)
	case *types.Slice:
		return carriesRegionValue(u.Elem(), regionType)
	case *types.Array:
		return carriesRegionValue(u.Elem(), regionType)
	case *types.Map:
		return carriesRegionValue(u.Key(), regionType) || carriesRegionValue(u.Elem(), regionType)
	case *types.Chan:
		return carriesRegionValue(u.Elem(), regionType)
	}
	return false
}

// importedVia returns the via *types.Package if pkg imports it.
func importedVia(pkg *types.Package) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == viaPath {
			return imp
		}
	}
	return nil
}

// namedType looks up a named type in pkg's scope.
func namedType(pkg *types.Package, name string) types.Type {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	return obj.Type()
}

// isType reports whether the composite literal's type is exactly t.
func isType(pass *analysis.Pass, lit *ast.CompositeLit, t types.Type) bool {
	tv, ok := pass.TypesInfo.Types[lit]
	return ok && types.Identical(tv.Type, t)
}

// isNewRegion reports whether call is new(via.Region).
func isNewRegion(pass *analysis.Pass, call *ast.CallExpr, regionType types.Type) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "new" || len(call.Args) != 1 {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "new" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	return ok && types.Identical(tv.Type, regionType)
}

// checkSink inspects calls to the VI work-queue entry points and traces
// the descriptor's Region to a registration origin where that is locally
// decidable.
func checkSink(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, regionType types.Type) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sinks[sel.Sel.Name] {
		return
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	obj := s.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != viaPath {
		return
	}
	// The descriptor is the last argument (PostSend/PostRecv take (p, d);
	// PrepostRecv takes (d)).
	if len(call.Args) == 0 {
		return
	}
	desc := call.Args[len(call.Args)-1]
	lit := descriptorLit(pass, file, call, desc)
	if lit == nil {
		return // built elsewhere; the construction rules still protect it
	}
	var regionExpr ast.Expr
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Region" {
			regionExpr = kv.Value
		}
	}
	if regionExpr == nil {
		pass.Reportf(call.Pos(), "%s with descriptor missing its Region: the NIC rejects DMA to unregistered memory — use a region from (*via.NIC).Register, RegisterRing or RegisterCached", sel.Sel.Name)
		return
	}
	if origin := untrustedOrigin(pass, file, call, regionExpr); origin != "" {
		pass.Reportf(regionExpr.Pos(), "%s descriptor's Region is %s: the NIC rejects DMA to unregistered memory — use a region from (*via.NIC).Register, RegisterRing or RegisterCached", sel.Sel.Name, origin)
	}
}

// descriptorLit resolves the descriptor argument to a composite literal
// when it is one syntactically (&via.Descriptor{...}) or a local variable
// assigned exactly one literal before the call.
func descriptorLit(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, e ast.Expr) *ast.CompositeLit {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if lit, ok := e.X.(*ast.CompositeLit); ok {
			return lit
		}
	case *ast.CompositeLit:
		return e
	case *ast.Ident:
		if v := singleAssignment(pass, file, call, e); v != nil {
			return descriptorLit(pass, file, call, v)
		}
	}
	return nil
}

// untrustedOrigin traces a Region-typed expression through local single
// assignments; it returns a description of a provably unregistered origin
// ("nil", "a forged literal", ...) or "" when the value may legitimately
// come from the registration API.
func untrustedOrigin(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, e ast.Expr) string {
	for depth := 0; depth < 8; depth++ {
		switch v := e.(type) {
		case *ast.Ident:
			if v.Name == "nil" {
				if _, isNil := pass.TypesInfo.Uses[v].(*types.Nil); isNil {
					return "nil"
				}
			}
			next := singleAssignment(pass, file, call, v)
			if next == nil {
				return "" // parameter, field, or multiply-assigned: trust it
			}
			e = next
		case *ast.UnaryExpr:
			if _, ok := v.X.(*ast.CompositeLit); ok {
				return "a forged composite literal"
			}
			return ""
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
					return "new(via.Region), which is never registered"
				}
			}
			return "" // a call yielding *via.Region: the registration API or a wrapper
		case *ast.ParenExpr:
			e = v.X
		default:
			return ""
		}
	}
	return ""
}

// singleAssignment returns the unique RHS assigned to ident's object in
// the enclosing function before use, or nil when the variable is assigned
// more than once, never, or isn't function-local.
func singleAssignment(pass *analysis.Pass, file *ast.File, call *ast.CallExpr, id *ast.Ident) ast.Expr {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	fn := enclosingFunc(file, call.Pos())
	if fn == nil {
		return nil
	}
	var rhs ast.Expr
	count := 0
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				for _, l := range n.Lhs {
					if li, ok := l.(*ast.Ident); ok && sameObj(pass, li, obj) {
						count += 2 // multi-value assignment: give up
					}
				}
				return true
			}
			for i, l := range n.Lhs {
				if li, ok := l.(*ast.Ident); ok && sameObj(pass, li, obj) {
					rhs = n.Rhs[i]
					count++
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if sameObj(pass, name, obj) && i < len(n.Values) {
					rhs = n.Values[i]
					count++
				}
			}
		}
		return true
	})
	if count != 1 {
		return nil
	}
	return rhs
}

// sameObj reports whether ident denotes obj (as a use or a definition).
func sameObj(pass *analysis.Pass, id *ast.Ident, obj types.Object) bool {
	return pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj
}

// enclosingFunc finds the innermost function declaration or literal
// containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var found ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				found = n
			}
		}
		return true
	})
	return found
}
