// Package wireevolve checks MarshalWire/UnmarshalWire pairs for field-order
// parity and safe evolution.
//
// Every wire message in the repo is hand-rolled over clash/internal/wirecodec:
// MarshalWire threads an append chain (b = wirecodec.AppendInt(b, ...)) and
// UnmarshalWire drains a Reader in the same order. Nothing but convention
// keeps the two sides aligned, and a transposed field pair decodes cleanly
// into garbage — the worst kind of wire bug. This analyzer extracts the
// ordered field sequence from both methods of each type and verifies:
//
//  1. parity — both sides name the same field kinds in the same order,
//     including repeated groups (loops) and delegated sub-messages
//     (return m.X.MarshalWire(b) / m.X.UnmarshalWire(data)); the two
//     branches of an if/else that write the same layout are one field;
//  2. evolution — once UnmarshalWire starts reading fields behind an
//     `r.Len() > 0` guard (the optional-trailing idiom for fields added
//     after a release), every later field must be guarded too. New fields
//     go at the end and must be optional-on-read, or old peers break.
//
// Length-overflow guards (`n > r.Len()`) are not optional markers. Reads the
// extractor cannot classify become wildcards that match any single field, so
// unusual-but-correct codecs do not trip the check.
package wireevolve

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clash/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wireevolve",
	Doc:  "MarshalWire/UnmarshalWire must agree on field order; fields added later must be trailing and optional-on-read",
	Run:  run,
}

// op is one field-sized step in a codec's wire order.
type op struct {
	// kind: a scalar kind ("int", "uvarint", "bytes", "string", "bool",
	// "float64"), an attribute section ("attrs"), a query record ("query"),
	// a delegated sub-message ("msg:TypeName"), a wildcard "?"
	// for unclassifiable chain steps, or "rep" for a repeated group.
	kind     string
	optional bool
	rep      []op
	pos      token.Pos
}

// appendKinds maps wirecodec.AppendX writers to field kinds; readerKinds maps
// Reader methods to the same kinds.
var appendKinds = map[string]string{
	"AppendInt":     "int",
	"AppendUvarint": "uvarint",
	"AppendBytes":   "bytes",
	"AppendString":  "string",
	"AppendBool":    "bool",
	"AppendFloat64": "float64",
	// An attribute section, encoded from a map or copied as it was read.
	"AppendAttrs":       "attrs",
	"AppendAttrSection": "attrs",
	// A length-prefixed query record (cq.Query.AppendWire's encoding).
	"AppendQueryRecord": "query",
}

var readerKinds = map[string]string{
	"Int":         "int",
	"Uvarint":     "uvarint",
	"Bytes":       "bytes",
	"String":      "string",
	"Bool":        "bool",
	"Float64":     "float64",
	"AttrSection": "attrs",
	"QueryRecord": "query",
}

type codec struct {
	typeName  string
	marshal   []op
	unmarshal []op
	// unmarshalPos anchors parity diagnostics (and their suppression
	// directives) on the UnmarshalWire declaration.
	unmarshalPos token.Pos
}

func run(pass *analysis.Pass) error {
	ex := &extractor{
		pass:    pass,
		decls:   make(map[types.Object]*ast.FuncDecl),
		helpers: make(map[types.Object][]op),
	}
	codecs := make(map[string]*codec)
	get := func(name string) *codec {
		c := codecs[name]
		if c == nil {
			c = &codec{typeName: name}
			codecs[name] = c
		}
		return c
	}

	// Index package-level function declarations so helper calls
	// (appendKey, readAttrs, ...) can be expanded in place.
	var methods []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				ex.decls[obj] = fd
			}
			if fd.Recv != nil && (fd.Name.Name == "MarshalWire" || fd.Name.Name == "UnmarshalWire") {
				methods = append(methods, fd)
			}
		}
	}

	var order []string
	for _, fd := range methods {
		recv := fd.Recv.List[0]
		tn := analysis.NamedTypeName(pass.Info.TypeOf(recv.Type))
		if tn == "" {
			continue
		}
		if _, seen := codecs[tn]; !seen {
			order = append(order, tn)
		}
		switch fd.Name.Name {
		case "MarshalWire":
			get(tn).marshal = ex.marshalOps(fd)
		case "UnmarshalWire":
			c := get(tn)
			c.unmarshal = ex.unmarshalOps(fd)
			c.unmarshalPos = fd.Name.Pos()
		}
	}

	for _, tn := range order {
		c := codecs[tn]
		if c.marshal == nil || c.unmarshal == nil {
			continue // half a codec is someone else's problem (or another file's)
		}
		checkParity(pass, c)
		checkTrailing(pass, c.unmarshal)
	}
	return nil
}

// ---- parity and evolution checks ----

func checkParity(pass *analysis.Pass, c *codec) {
	if msg := compareOps(c.marshal, c.unmarshal); msg != "" {
		pass.Reportf(c.unmarshalPos, "%s: MarshalWire and UnmarshalWire disagree on wire layout: %s", c.typeName, msg)
	}
}

// compareOps returns "" when the sequences agree, else a description of the
// first divergence. Optional flags are ignored: the writer always emits
// optional-on-read trailing fields.
func compareOps(ms, us []op) string {
	n := len(ms)
	if len(us) < n {
		n = len(us)
	}
	for i := 0; i < n; i++ {
		m, u := ms[i], us[i]
		if m.kind == "?" || u.kind == "?" {
			continue
		}
		if m.kind == "rep" || u.kind == "rep" {
			if m.kind != u.kind {
				return fmt.Sprintf("field %d: %s written but %s read", i+1, describeOp(m), describeOp(u))
			}
			if msg := compareOps(m.rep, u.rep); msg != "" {
				return fmt.Sprintf("repeated group at field %d: %s", i+1, msg)
			}
			continue
		}
		if m.kind != u.kind {
			return fmt.Sprintf("field %d: %s written but %s read", i+1, describeOp(m), describeOp(u))
		}
	}
	if len(ms) != len(us) {
		return fmt.Sprintf("MarshalWire writes %d fields but UnmarshalWire reads %d", len(ms), len(us))
	}
	return ""
}

func describeOp(o op) string {
	switch {
	case o.kind == "rep":
		return "a repeated group"
	case strings.HasPrefix(o.kind, "msg:"):
		return "sub-message " + strings.TrimPrefix(o.kind, "msg:")
	default:
		return o.kind
	}
}

// checkTrailing enforces the evolution rule: after the first optional
// (r.Len()-guarded) read, every later top-level read must be optional too.
func checkTrailing(pass *analysis.Pass, us []op) {
	sawOptional := false
	for _, o := range us {
		if o.optional {
			sawOptional = true
			continue
		}
		if sawOptional {
			pass.Reportf(o.pos, "unguarded %s read after an optional trailing field: added fields must be trailing and optional-on-read (guard with r.Len() > 0), or old peers misparse", describeOp(o))
			// One report per method is enough; everything after is equally doomed.
			return
		}
	}
}

// ---- extraction ----

type extractor struct {
	pass    *analysis.Pass
	decls   map[types.Object]*ast.FuncDecl
	helpers map[types.Object][]op // memoized helper op sequences (nil while in progress)
}

// chainSet tracks which variables currently hold the wire byte chain (marshal)
// or the *wirecodec.Reader (unmarshal).
type chainSet map[types.Object]bool

func (cs chainSet) holds(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.Info.Uses[e]; obj != nil && cs[obj] {
			return true
		}
	case *ast.SliceExpr:
		return cs.holds(pass, e.X)
	}
	return false
}

// marshalOps extracts the write sequence of a MarshalWire(b []byte) []byte
// method (or a helper with the same shape).
func (ex *extractor) marshalOps(fd *ast.FuncDecl) []op {
	chain := chainSet{}
	dataParam := firstParamOfType(ex.pass, fd, isByteSlice)
	if dataParam == nil {
		return nil
	}
	chain[dataParam] = true
	return ex.marshalStmts(fd.Body.List, chain)
}

func (ex *extractor) marshalStmts(stmts []ast.Stmt, chain chainSet) []op {
	var ops []op
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				continue
			}
			for i := range st.Rhs {
				callOps, consumes := ex.marshalExpr(st.Rhs[i], chain)
				ops = append(ops, callOps...)
				if id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
					obj := ex.pass.Info.Defs[id]
					if obj == nil {
						obj = ex.pass.Info.Uses[id]
					}
					if obj != nil {
						if consumes || chain.holds(ex.pass, st.Rhs[i]) {
							chain[obj] = true
						} else {
							delete(chain, obj)
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				callOps, _ := ex.marshalExpr(res, chain)
				ops = append(ops, callOps...)
			}
		case *ast.IfStmt:
			// Marshal-side conditionals (optional trailing writes) splice in
			// order; the unmarshal side decides optionality.
			if st.Init != nil {
				ops = append(ops, ex.marshalStmts([]ast.Stmt{st.Init}, chain)...)
			}
			then := ex.marshalStmts(st.Body.List, chain)
			var els []op
			if blk, ok := st.Else.(*ast.BlockStmt); ok {
				els = ex.marshalStmts(blk.List, chain)
			}
			ops = append(ops, branches(then, els)...)
		case *ast.ForStmt:
			if inner := ex.marshalStmts(st.Body.List, chain); len(inner) > 0 {
				ops = append(ops, op{kind: "rep", rep: inner, pos: st.Pos()})
			}
		case *ast.RangeStmt:
			if inner := ex.marshalStmts(st.Body.List, chain); len(inner) > 0 {
				ops = append(ops, op{kind: "rep", rep: inner, pos: st.Pos()})
			}
		case *ast.BlockStmt:
			ops = append(ops, ex.marshalStmts(st.List, chain)...)
		case *ast.ExprStmt:
			callOps, _ := ex.marshalExpr(st.X, chain)
			ops = append(ops, callOps...)
		}
	}
	return ops
}

// marshalExpr classifies one right-hand side. consumes reports whether the
// expression threads the chain (so the assignee stays a chain variable).
func (ex *extractor) marshalExpr(e ast.Expr, chain chainSet) (ops []op, consumes bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	if !chain.holds(ex.pass, call.Args[0]) {
		// Scratch builders (scratch = rec.MarshalWire(scratch[:0])) and
		// unrelated calls contribute nothing to this codec's order.
		return nil, false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if pkgPath, name, ok := analysis.CalleePkgFunc(ex.pass.Info, call); ok &&
			analysis.LastSegment(pkgPath) == "wirecodec" {
			if kind, ok := appendKinds[name]; ok {
				return []op{{kind: kind, pos: call.Pos()}}, true
			}
			return []op{{kind: "?", pos: call.Pos()}}, true
		}
		if fun.Sel.Name == "MarshalWire" {
			if tn := analysis.NamedTypeName(ex.pass.Info.TypeOf(fun.X)); tn != "" {
				return []op{{kind: "msg:" + tn, pos: call.Pos()}}, true
			}
		}
		return []op{{kind: "?", pos: call.Pos()}}, true
	case *ast.Ident:
		if obj := ex.pass.Info.Uses[fun]; obj != nil {
			if seq, ok := ex.helperOps(obj, true); ok {
				out := make([]op, len(seq))
				for i, o := range seq {
					o.pos = call.Pos()
					out[i] = o
				}
				return out, true
			}
		}
		return []op{{kind: "?", pos: call.Pos()}}, true
	}
	return []op{{kind: "?", pos: call.Pos()}}, true
}

// unmarshalOps extracts the read sequence of UnmarshalWire(data []byte) error
// (or a helper taking a *wirecodec.Reader).
func (ex *extractor) unmarshalOps(fd *ast.FuncDecl) []op {
	readers := chainSet{}
	dataParam := firstParamOfType(ex.pass, fd, isByteSlice)
	for _, obj := range paramsOfType(ex.pass, fd, isWireReader) {
		readers[obj] = true
	}
	return ex.unmarshalStmts(fd.Body.List, readers, dataParam)
}

func (ex *extractor) unmarshalStmts(stmts []ast.Stmt, readers chainSet, dataParam types.Object) []op {
	var ops []op
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.AssignStmt:
			// r := wirecodec.NewReader(data) seeds the reader set.
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Rhs {
					if call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr); ok {
						if pkgPath, name, ok := analysis.CalleePkgFunc(ex.pass.Info, call); ok &&
							analysis.LastSegment(pkgPath) == "wirecodec" && name == "NewReader" {
							if id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident); ok {
								if obj := ex.pass.Info.Defs[id]; obj != nil {
									readers[obj] = true
									continue
								}
							}
						}
					}
					ops = append(ops, ex.readOps(st.Rhs[i], readers, dataParam)...)
				}
				continue
			}
			for _, rhs := range st.Rhs {
				ops = append(ops, ex.readOps(rhs, readers, dataParam)...)
			}
		case *ast.ExprStmt:
			ops = append(ops, ex.readOps(st.X, readers, dataParam)...)
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				ops = append(ops, ex.readOps(res, readers, dataParam)...)
			}
		case *ast.IfStmt:
			var inner []op
			if st.Init != nil {
				inner = append(inner, ex.unmarshalStmts([]ast.Stmt{st.Init}, readers, dataParam)...)
			}
			inner = append(inner, ex.readOps(st.Cond, readers, dataParam)...)
			then := ex.unmarshalStmts(st.Body.List, readers, dataParam)
			var els []op
			if blk, ok := st.Else.(*ast.BlockStmt); ok {
				els = ex.unmarshalStmts(blk.List, readers, dataParam)
			}
			inner = append(inner, branches(then, els)...)
			if isOptionalGuard(ex.pass, st.Cond, readers) {
				for i := range inner {
					inner[i].optional = true
				}
			}
			ops = append(ops, inner...)
		case *ast.ForStmt:
			if st.Init != nil {
				ops = append(ops, ex.unmarshalStmts([]ast.Stmt{st.Init}, readers, dataParam)...)
			}
			if inner := ex.unmarshalStmts(st.Body.List, readers, dataParam); len(inner) > 0 {
				ops = append(ops, op{kind: "rep", rep: inner, pos: st.Pos()})
			}
		case *ast.RangeStmt:
			if inner := ex.unmarshalStmts(st.Body.List, readers, dataParam); len(inner) > 0 {
				ops = append(ops, op{kind: "rep", rep: inner, pos: st.Pos()})
			}
		case *ast.BlockStmt:
			ops = append(ops, ex.unmarshalStmts(st.List, readers, dataParam)...)
		case *ast.DeclStmt:
			// var g TopoGroup — no reads.
		}
	}
	return ops
}

// branches joins the op sequences of an if statement's two branches. Two
// branches with the same layout are alternative encodings of the same fields
// and count once; otherwise they splice in order.
func branches(then, els []op) []op {
	if len(then) > 0 && compareOps(then, els) == "" {
		return then
	}
	return append(then, els...)
}

// readOps collects reader-consuming calls inside one expression, in source
// order: r.Int() and friends, helper(r) expansions, and whole-payload
// delegation m.X.UnmarshalWire(data).
func (ex *extractor) readOps(e ast.Expr, readers chainSet, dataParam types.Object) []op {
	var ops []op
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if readers.holds(ex.pass, fun.X) {
				if kind, ok := readerKinds[fun.Sel.Name]; ok {
					ops = append(ops, op{kind: kind, pos: call.Pos()})
				}
				// Err/Len and other non-consuming methods: nothing.
				return false
			}
			if fun.Sel.Name == "UnmarshalWire" && len(call.Args) == 1 {
				if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if obj := ex.pass.Info.Uses[id]; obj != nil && obj == dataParam {
						if tn := analysis.NamedTypeName(ex.pass.Info.TypeOf(fun.X)); tn != "" {
							ops = append(ops, op{kind: "msg:" + tn, pos: call.Pos()})
							return false
						}
					}
				}
				// Nested record decode (g.UnmarshalWire(rec)): the enclosing
				// r.Bytes() op already accounts for those bytes.
				return false
			}
		case *ast.Ident:
			// Local helper receiving the reader: splice its sequence.
			if hasReaderArg(ex.pass, call, readers) {
				if obj := ex.pass.Info.Uses[fun]; obj != nil {
					if seq, ok := ex.helperOps(obj, false); ok {
						for _, o := range seq {
							o.pos = call.Pos()
							ops = append(ops, o)
						}
						return false
					}
				}
				ops = append(ops, op{kind: "?", pos: call.Pos()})
				return false
			}
		}
		return true
	})
	return ops
}

// helperOps extracts (and memoizes) the op sequence of a package-local helper.
func (ex *extractor) helperOps(obj types.Object, marshal bool) ([]op, bool) {
	fd, ok := ex.decls[obj]
	if !ok {
		return nil, false
	}
	if seq, done := ex.helpers[obj]; done {
		return seq, true
	}
	ex.helpers[obj] = nil // cycle guard: a recursive helper contributes nothing
	var seq []op
	if marshal {
		seq = ex.marshalOps(fd)
	} else {
		seq = ex.unmarshalOps(fd)
	}
	ex.helpers[obj] = seq
	return seq, true
}

// isOptionalGuard reports whether cond contains the optional-trailing idiom
// r.Len() > 0 (or != 0). Overflow guards compare against the length from the
// other side (n > r.Len()) and do not count.
func isOptionalGuard(pass *analysis.Pass, cond ast.Expr, readers chainSet) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if be.Op != token.GTR && be.Op != token.NEQ {
			return true
		}
		call, ok := ast.Unparen(be.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Len" || !readers.holds(pass, sel.X) {
			return true
		}
		if lit, ok := ast.Unparen(be.Y).(*ast.BasicLit); ok && lit.Value == "0" {
			found = true
			return false
		}
		return true
	})
	return found
}

func hasReaderArg(pass *analysis.Pass, call *ast.CallExpr, readers chainSet) bool {
	for _, arg := range call.Args {
		if readers.holds(pass, arg) {
			return true
		}
	}
	return false
}

// ---- small type helpers ----

func firstParamOfType(pass *analysis.Pass, fd *ast.FuncDecl, match func(types.Type) bool) types.Object {
	for _, obj := range paramsOfType(pass, fd, match) {
		return obj
	}
	return nil
}

func paramsOfType(pass *analysis.Pass, fd *ast.FuncDecl, match func(types.Type) bool) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil && match(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isWireReader matches *wirecodec.Reader (by package path tail and type name).
func isWireReader(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Reader" && obj.Pkg() != nil &&
		analysis.LastSegment(obj.Pkg().Path()) == "wirecodec"
}
