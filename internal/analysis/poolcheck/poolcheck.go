// Package poolcheck flags pooled frame buffers that escape their handler.
//
// The transport reads request frames into wirecodec pooled buffers and
// recycles them the moment the handler returns (the ownership contract on
// overlay.Handler, built in PR 8). A handler — or any function drawing a
// buffer with wirecodec.GetBuf — must therefore not retain the buffer
// (or a reslice of it) anywhere that outlives the call:
//
//   - stored into a struct field or package-level variable,
//   - captured by a goroutine it spawns,
//   - appended (as the slice itself, not its copied contents) to a
//     long-lived slice,
//   - sent on a channel.
//
// Explicit copies (append([]byte(nil), buf...), bytes.Clone, string
// conversion) produce fresh values and pass untouched. Returning the buffer
// is legal: the Handler contract transfers ownership back to the transport.
// Deliberate ownership handoffs (e.g. a queue whose consumer recycles the
// buffers itself) carry //clashvet:ignore poolcheck <reason> directives.
//
// Tracked pooled sources: results of wirecodec.GetBuf, []byte parameters of
// handler functions (name beginning with "handle"/"Handle"), and the reply of
// a Call or CallOpts that the function itself hands to wirecodec.PutBuf: the
// transport returns replies in pooled buffers, and a caller that recycles
// one must not keep any of it.
package poolcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"clash/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc:  "flag pooled wirecodec buffers (GetBuf results, handler payloads) retained past handler return",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// checkFunc tracks the function's pooled values through a linear walk of its
// body. Nested function literals share the pooled set (a closure referencing
// a pooled buffer sees the same value) but are only *reported* as escapes
// when spawned via go.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	pooled := make(map[types.Object]bool)
	recycled := recycledObjs(pass, fd.Body)
	if isHandlerName(fd.Name.Name) && fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.Info.Defs[name]
				if obj != nil && isByteSlice(obj.Type()) {
					pooled[obj] = true
				}
			}
		}
	}
	walkStmts(pass, fd.Body, pooled, recycled)
}

// recycledObjs collects the variables the body passes to wirecodec.PutBuf.
func recycledObjs(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if pkgPath, fn, ok := analysis.CalleePkgFunc(pass.Info, call); !ok ||
			fn != "PutBuf" || analysis.LastSegment(pkgPath) != "wirecodec" {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isCallReply reports whether expr is a Call or CallOpts method call, whose
// first result is a transport reply.
func isCallReply(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Call" || sel.Sel.Name == "CallOpts")
}

func isHandlerName(name string) bool {
	return strings.HasPrefix(name, "handle") || strings.HasPrefix(name, "Handle")
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// walkStmts processes statements in source order so assignments update the
// pooled set before later uses are judged.
func walkStmts(pass *analysis.Pass, body *ast.BlockStmt, pooled, recycled map[types.Object]bool) {
	// handled tracks append calls already judged as part of their enclosing
	// assignment so the pre-order walk does not report them twice.
	handled := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			handleAssign(pass, n, pooled, recycled, handled)
		case *ast.GoStmt:
			handleGo(pass, n, pooled)
			return false // contents judged as a unit
		case *ast.SendStmt:
			if obj := pooledObj(pass, n.Value, pooled); obj != nil {
				pass.Reportf(n.Value.Pos(), "pooled buffer %s sent on a channel escapes its handler (the transport recycles it on return; copy it or hand off ownership explicitly)", obj.Name())
			}
		case *ast.CallExpr:
			if !handled[n] {
				handleAppendEscape(pass, n, pooled, nil)
			}
		}
		return true
	})
}

// pooledObj resolves expr to a tracked pooled object: the identifier itself
// or a reslice of it (buf[a:b], buf[:]). Spread copies (append(dst, buf...))
// are handled at the call sites.
func pooledObj(pass *analysis.Pass, expr ast.Expr, pooled map[types.Object]bool) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := pass.Info.Uses[e]; obj != nil && pooled[obj] {
			return obj
		}
	case *ast.SliceExpr:
		return pooledObj(pass, e.X, pooled)
	}
	return nil
}

// isPoolSource reports whether expr yields a freshly pooled buffer
// (wirecodec.GetBuf() or a chain growing one: append(pooled, ...)).
func isPoolSource(pass *analysis.Pass, expr ast.Expr, pooled map[types.Object]bool) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return pooledObj(pass, expr, pooled) != nil
	}
	if pkgPath, fn, ok := analysis.CalleePkgFunc(pass.Info, call); ok &&
		fn == "GetBuf" && analysis.LastSegment(pkgPath) == "wirecodec" {
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsBuiltin() {
			// append(pooled, ...) returns (a grown alias of) the pooled buffer.
			return isPoolSource(pass, call.Args[0], pooled)
		}
	}
	return false
}

func handleAssign(pass *analysis.Pass, as *ast.AssignStmt, pooled, recycled map[types.Object]bool, handled map[*ast.CallExpr]bool) {
	n := len(as.Rhs)
	if n == 1 && len(as.Lhs) > 1 && isCallReply(as.Rhs[0]) {
		// reply, err := tr.Call(...): the reply is pooled when this function
		// recycles it.
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil && recycled[obj] {
				pooled[obj] = true
			} else if obj != nil {
				delete(pooled, obj)
			}
		}
		return
	}
	if n != len(as.Lhs) {
		return
	}
	for i := 0; i < n; i++ {
		lhs, rhs := as.Lhs[i], as.Rhs[i]
		// Taint/untaint locals.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil {
				if isPoolSource(pass, rhs, pooled) {
					pooled[obj] = true
				} else {
					delete(pooled, obj)
				}
			}
			continue
		}
		// Stores into anything non-local (x.f = buf, x.f[i] = buf,
		// global[i] = buf) retain the buffer past the call.
		if obj := pooledObj(pass, rhs, pooled); obj != nil {
			pass.Reportf(rhs.Pos(), "pooled buffer %s stored into %s outlives its handler (the transport recycles it on return; copy it first)", obj.Name(), exprString(lhs))
		}
	}
	handleAppendEscape(pass, nil, pooled, as)
	for i := range as.Rhs {
		if c, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
			handled[c] = true
		}
	}
}

// handleAppendEscape flags append calls that park a pooled buffer (as an
// element, not spread-copied contents) in a long-lived slice: the destination
// or the assignment target is a field selector or package-level variable.
func handleAppendEscape(pass *analysis.Pass, call *ast.CallExpr, pooled map[types.Object]bool, as *ast.AssignStmt) {
	calls := []*ast.CallExpr{}
	longLived := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			// x.f — a field (or anything reached through a selector).
			return pass.Info.Selections[e] != nil
		case *ast.IndexExpr:
			return false
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			return obj != nil && obj.Parent() == pass.Pkg.Scope()
		}
		return false
	}
	if call != nil {
		calls = append(calls, call)
	}
	if as != nil {
		for i := range as.Rhs {
			if c, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
				calls = append(calls, c)
			}
		}
	}
	for _, c := range calls {
		id, ok := ast.Unparen(c.Fun).(*ast.Ident)
		if !ok || id.Name != "append" || len(c.Args) < 2 {
			continue
		}
		if tv, ok := pass.Info.Types[c.Fun]; !ok || !tv.IsBuiltin() {
			continue
		}
		elems := c.Args[1:]
		if c.Ellipsis.IsValid() {
			continue // append(dst, buf...) copies the bytes
		}
		dstLong := longLived(c.Args[0])
		if !dstLong && as != nil {
			for _, lhs := range as.Lhs {
				if longLived(lhs) {
					dstLong = true
				}
			}
		}
		if !dstLong {
			continue
		}
		for _, el := range elems {
			if obj := pooledObj(pass, el, pooled); obj != nil {
				pass.Reportf(el.Pos(), "pooled buffer %s appended to long-lived slice %s (the transport recycles it on return; append a copy)", obj.Name(), exprString(c.Args[0]))
			}
		}
	}
}

// handleGo flags pooled buffers reaching a spawned goroutine, either as call
// arguments or as free variables of a function literal.
func handleGo(pass *analysis.Pass, g *ast.GoStmt, pooled map[types.Object]bool) {
	for _, arg := range g.Call.Args {
		if obj := pooledObj(pass, arg, pooled); obj != nil {
			pass.Reportf(arg.Pos(), "pooled buffer %s passed to a spawned goroutine outlives its handler (the transport recycles it on return; copy it or hand off ownership explicitly)", obj.Name())
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && pooled[obj] {
					pass.Reportf(id.Pos(), "pooled buffer %s captured by a spawned goroutine outlives its handler (the transport recycles it on return; copy it or hand off ownership explicitly)", obj.Name())
				}
			}
			return true
		})
	}
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.SliceExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}
