// Package irgen lowers a type-checked MiniC program (sema.Program) into
// the IL module representation. All named locals live in addressable frame
// slots; expression temporaries use virtual registers. Lowering is
// deliberately naive — the paper applies constant folding and jump
// optimization as separate passes before inline expansion, and this
// pipeline does the same (see package opt).
package irgen

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"inlinec/internal/ast"
	"inlinec/internal/ir"
	"inlinec/internal/sema"
	"inlinec/internal/token"
	"inlinec/internal/types"
)

// Generate lowers the program to an IL module.
func Generate(prog *sema.Program) (*ir.Module, error) {
	g := &gen{
		prog:    prog,
		mod:     ir.NewModule(prog.File.Name),
		strLits: make(map[string]string),
		globals: make(map[*ast.VarDecl]string),
		unit:    unitTag(prog.File.Name),
	}
	if err := g.run(); err != nil {
		return nil, err
	}
	g.mod.AssignCallIDs()
	if err := g.mod.Verify(); err != nil {
		return nil, fmt.Errorf("irgen produced invalid IL: %w", err)
	}
	return g.mod, nil
}

type gen struct {
	prog    *sema.Program
	mod     *ir.Module
	strLits map[string]string       // literal value -> global name
	globals map[*ast.VarDecl]string // global decl -> global name
	unit    string                  // sanitized unit name for static symbols

	// scratch is the code buffer every function body is generated into.
	// genFunc copies the finished body out at its exact size and keeps
	// the buffer for the next function, so growing a body leaves no
	// discarded arrays behind.
	scratch []ir.Instr

	// Per-function state.
	fn        *ir.Func
	slotOf    map[*ast.VarDecl]int
	userLabel map[string]int // goto label name -> IR label
	breaks    []int          // label stack for break
	conts     []int          // label stack for continue
}

type genError struct {
	pos token.Pos
	msg string
}

func (e *genError) Error() string { return fmt.Sprintf("%s: %s", e.pos, e.msg) }

func (g *gen) failf(pos token.Pos, format string, args ...any) {
	panic(&genError{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// unitTag derives a symbol-safe tag from a file name, used to qualify
// unit-private (static) symbols so separately compiled units can be
// linked without collisions.
func unitTag(file string) string {
	base := file
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	out := make([]byte, 0, len(base))
	for i := 0; i < len(base); i++ {
		c := base[i]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			out = append(out, c)
		} else {
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "unit"
	}
	return string(out)
}

// funcSym returns the IL-level name of a function declaration: static
// functions are qualified with the unit tag.
func (g *gen) funcSym(fd *ast.FuncDecl) string {
	if fd.IsStatic && fd.Body != nil {
		return g.unit + "$" + fd.Name
	}
	return fd.Name
}

func (g *gen) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ge, ok := r.(*genError); ok {
				err = ge
				return
			}
			panic(r)
		}
	}()

	for _, e := range g.prog.Externs {
		g.mod.AddExtern(ir.Extern{
			Name:      e.Name,
			NumParams: len(e.Type.Params),
			Variadic:  e.Type.Variadic,
		})
	}
	for _, vd := range g.prog.Globals {
		g.genGlobal(vd)
	}
	for _, fd := range g.prog.Funcs {
		g.genFunc(fd)
	}
	for fd := range g.prog.AddressTaken {
		if fd.Body != nil {
			g.mod.AddressTaken[g.funcSym(fd)] = true
		}
	}
	return nil
}

// --------------------------------------------------------------- globals

func (g *gen) internString(s string) string {
	if name, ok := g.strLits[s]; ok {
		return name
	}
	name := fmt.Sprintf(".str%d", len(g.strLits))
	g.strLits[s] = name
	data := append([]byte(s), 0)
	g.mod.AddGlobal(&ir.Global{Name: name, Size: len(data), Align: 1, Init: data})
	return name
}

func (g *gen) genGlobal(vd *ast.VarDecl) {
	name := vd.Name
	if vd.IsStatic {
		name = g.unit + "$" + name
	}
	if vd.IsExtern && vd.Init == nil {
		// Declaration without storage: the linker resolves it against a
		// definition in another unit.
		g.mod.ExternGlobals[name] = true
		g.globals[vd] = name
		return
	}
	size := vd.Type.Size()
	if size == 0 {
		size = types.IntSize
	}
	glob := &ir.Global{Name: name, Size: size, Align: vd.Type.Align()}
	if vd.Init != nil {
		glob.Init = make([]byte, size)
		g.emitGlobalInit(glob, 0, vd.Type, vd.Init)
	}
	g.mod.AddGlobal(glob)
	g.globals[vd] = name
}

// emitGlobalInit writes the constant initializer for type t at offset off.
func (g *gen) emitGlobalInit(glob *ir.Global, off int, t types.Type, init ast.Expr) {
	switch e := init.(type) {
	case *ast.IntLit:
		g.putInt(glob, off, t, e.Value)
	case *ast.UnaryExpr:
		v, ok := constFold(init)
		if !ok {
			g.failf(init.Pos(), "unsupported constant initializer")
		}
		g.putInt(glob, off, t, v)
	case *ast.StrLit:
		if arr, isArr := t.(*types.Arr); isArr && arr.Elem.Kind() == types.Char {
			copy(glob.Init[off:], e.Value)
			// NUL terminator is implicit (Init was zeroed).
			return
		}
		// Pointer initialized with the address of an interned string.
		name := g.internString(e.Value)
		glob.Relocs = append(glob.Relocs, ir.Reloc{Offset: off, Sym: name})
	case *ast.Ident:
		// A function name: store its address.
		if fd, ok := e.Ref.(*ast.FuncDecl); ok {
			glob.Relocs = append(glob.Relocs, ir.Reloc{Offset: off, Sym: g.funcSym(fd), IsFunc: true})
			return
		}
		g.failf(init.Pos(), "unsupported constant initializer")
	case *ast.InitListExpr:
		switch tt := t.(type) {
		case *types.Arr:
			es := tt.Elem.Size()
			for i, el := range e.Elems {
				g.emitGlobalInit(glob, off+i*es, tt.Elem, el)
			}
		case *types.StructType:
			for i, el := range e.Elems {
				if i < len(tt.Fields) {
					g.emitGlobalInit(glob, off+tt.Fields[i].Offset, tt.Fields[i].Type, el)
				}
			}
		default:
			g.failf(init.Pos(), "initializer list for non-aggregate type %s", t)
		}
	default:
		g.failf(init.Pos(), "unsupported constant initializer %T", init)
	}
}

func (g *gen) putInt(glob *ir.Global, off int, t types.Type, v int64) {
	if t.Kind() == types.Char {
		glob.Init[off] = byte(v)
		return
	}
	binary.LittleEndian.PutUint64(glob.Init[off:], uint64(v))
}

// constFold evaluates the tiny constant-expression forms allowed in
// initializers (literals under unary - and ~).
func constFold(e ast.Expr) (int64, bool) {
	switch ee := e.(type) {
	case *ast.IntLit:
		return ee.Value, true
	case *ast.UnaryExpr:
		v, ok := constFold(ee.X)
		if !ok {
			return 0, false
		}
		switch ee.Op {
		case token.Minus:
			return -v, true
		case token.Tilde:
			return ^v, true
		}
	}
	return 0, false
}

// --------------------------------------------------------------- functions

func (g *gen) genFunc(fd *ast.FuncDecl) {
	g.fn = &ir.Func{
		Name:         g.funcSym(fd),
		ReturnsValue: !types.IsVoid(fd.Type.Result),
		SrcLines:     srcLines(fd),
		Code:         g.scratch[:0],
	}
	g.slotOf = make(map[*ast.VarDecl]int)
	g.userLabel = make(map[string]int)
	g.breaks, g.conts = nil, nil

	for _, p := range fd.Params {
		t := types.Decay(p.Type)
		idx := g.fn.AddSlot(p.Name, sizeOf(t), t.Align(), true)
		g.slotOf[p] = idx
		g.fn.NumParams++
	}
	g.genBlock(fd.Body)

	// Implicit return for functions that fall off the end.
	if g.fn.ReturnsValue {
		r := g.fn.NewReg()
		g.emit(ir.Instr{Op: ir.OpConst, Dst: r, A: ir.C(0), Pos: fd.Pos()})
		g.emit(ir.Instr{Op: ir.OpRet, A: ir.R(r), Pos: fd.Pos()})
	} else {
		g.emit(ir.Instr{Op: ir.OpRet, A: ir.None, Pos: fd.Pos()})
	}
	g.scratch = g.fn.Code
	g.fn.Code = slices.Clone(g.fn.Code)
	g.mod.AddFunc(g.fn)
	g.fn = nil
}

func srcLines(fd *ast.FuncDecl) int {
	if fd.Body == nil {
		return 1
	}
	last := fd.Pos().Line
	var walk func(s ast.Stmt)
	walkE := func(e ast.Expr) {
		if e != nil && e.Pos().Line > last {
			last = e.Pos().Line
		}
	}
	walk = func(s ast.Stmt) {
		if s == nil {
			return
		}
		if s.Pos().Line > last {
			last = s.Pos().Line
		}
		switch ss := s.(type) {
		case *ast.BlockStmt:
			for _, st := range ss.List {
				walk(st)
			}
		case *ast.IfStmt:
			walkE(ss.Cond)
			walk(ss.Then)
			walk(ss.Else)
		case *ast.WhileStmt:
			walkE(ss.Cond)
			walk(ss.Body)
		case *ast.DoWhileStmt:
			walk(ss.Body)
			walkE(ss.Cond)
		case *ast.ForStmt:
			walk(ss.Init)
			walkE(ss.Cond)
			walkE(ss.Post)
			walk(ss.Body)
		case *ast.LabeledStmt:
			walk(ss.Stmt)
		case *ast.SwitchStmt:
			walkE(ss.Tag)
			for _, cc := range ss.Cases {
				for _, st := range cc.Body {
					walk(st)
				}
			}
		case *ast.ExprStmt:
			walkE(ss.X)
		case *ast.ReturnStmt:
			walkE(ss.X)
		case *ast.VarDecl:
			walkE(ss.Init)
		}
	}
	walk(fd.Body)
	return last - fd.Pos().Line + 1
}

func sizeOf(t types.Type) int {
	s := t.Size()
	if s == 0 {
		s = types.IntSize
	}
	return s
}

func (g *gen) emit(in ir.Instr) { g.fn.Emit(in) }

func (g *gen) label(l int, pos token.Pos) {
	g.emit(ir.Instr{Op: ir.OpLabel, Label: l, Pos: pos})
}

// accessSize returns the load/store width for a scalar type.
func accessSize(t types.Type) int {
	if t.Kind() == types.Char {
		return 1
	}
	return types.IntSize
}

// ---------------------------------------------------------------- statements

func (g *gen) genBlock(b *ast.BlockStmt) {
	for _, s := range b.List {
		g.genStmt(s)
	}
}

func (g *gen) genStmt(s ast.Stmt) {
	switch ss := s.(type) {
	case *ast.BlockStmt:
		g.genBlock(ss)
	case *ast.EmptyStmt:
	case *ast.VarDecl:
		g.genLocalDecl(ss)
	case *ast.ExprStmt:
		g.genExpr(ss.X)
	case *ast.IfStmt:
		g.genIf(ss)
	case *ast.WhileStmt:
		g.genWhile(ss)
	case *ast.DoWhileStmt:
		g.genDoWhile(ss)
	case *ast.ForStmt:
		g.genFor(ss)
	case *ast.ReturnStmt:
		if ss.X != nil {
			v := g.rvalue(ss.X)
			g.emit(ir.Instr{Op: ir.OpRet, A: v, Pos: ss.Pos()})
		} else {
			g.emit(ir.Instr{Op: ir.OpRet, A: ir.None, Pos: ss.Pos()})
		}
	case *ast.BreakStmt:
		g.emit(ir.Instr{Op: ir.OpJump, Label: g.breaks[len(g.breaks)-1], Pos: ss.Pos()})
	case *ast.ContinueStmt:
		g.emit(ir.Instr{Op: ir.OpJump, Label: g.conts[len(g.conts)-1], Pos: ss.Pos()})
	case *ast.GotoStmt:
		g.emit(ir.Instr{Op: ir.OpJump, Label: g.gotoLabel(ss.Label), Pos: ss.Pos()})
	case *ast.LabeledStmt:
		g.label(g.gotoLabel(ss.Label), ss.Pos())
		g.genStmt(ss.Stmt)
	case *ast.SwitchStmt:
		g.genSwitch(ss)
	default:
		g.failf(s.Pos(), "unhandled statement %T", s)
	}
}

func (g *gen) gotoLabel(name string) int {
	if l, ok := g.userLabel[name]; ok {
		return l
	}
	l := g.fn.NewLabel()
	g.userLabel[name] = l
	return l
}

func (g *gen) genLocalDecl(vd *ast.VarDecl) {
	t := vd.Type
	idx := g.fn.AddSlot(vd.Name, sizeOf(t), t.Align(), false)
	g.slotOf[vd] = idx
	if vd.Init == nil {
		return
	}
	base := func() ir.Value {
		r := g.fn.NewReg()
		g.emit(ir.Instr{Op: ir.OpAddrL, Dst: r, A: ir.C(int64(idx)), Pos: vd.Pos()})
		return ir.R(r)
	}
	switch init := vd.Init.(type) {
	case *ast.InitListExpr:
		switch tt := t.(type) {
		case *types.Arr:
			es := tt.Elem.Size()
			for i, el := range init.Elems {
				v := g.rvalue(el)
				addr := g.addOffset(base(), int64(i*es), el.Pos())
				g.emit(ir.Instr{Op: ir.OpStore, A: addr, B: v, Size: accessSize(tt.Elem), Pos: el.Pos()})
			}
		case *types.StructType:
			for i, el := range init.Elems {
				if i >= len(tt.Fields) {
					break
				}
				f := tt.Fields[i]
				v := g.rvalue(el)
				addr := g.addOffset(base(), int64(f.Offset), el.Pos())
				g.emit(ir.Instr{Op: ir.OpStore, A: addr, B: v, Size: accessSize(f.Type), Pos: el.Pos()})
			}
		}
	case *ast.StrLit:
		if arr, isArr := t.(*types.Arr); isArr && arr.Elem.Kind() == types.Char {
			// char buf[] = "..." : copy the interned literal byte by byte.
			name := g.internString(init.Value)
			src := g.fn.NewReg()
			g.emit(ir.Instr{Op: ir.OpAddrG, Dst: src, Sym: name, Pos: vd.Pos()})
			g.emitMemCopy(base(), ir.R(src), len(init.Value)+1, vd.Pos())
			return
		}
		v := g.rvalue(vd.Init)
		g.emit(ir.Instr{Op: ir.OpStore, A: base(), B: v, Size: accessSize(t), Pos: vd.Pos()})
	default:
		v := g.rvalue(vd.Init)
		if st, isStruct := t.(*types.StructType); isStruct {
			g.emitMemCopy(base(), v, st.Size(), vd.Pos())
			return
		}
		g.emit(ir.Instr{Op: ir.OpStore, A: base(), B: v, Size: accessSize(t), Pos: vd.Pos()})
	}
}

// emitMemCopy copies n bytes from src address to dst address with unrolled
// word and byte moves (small n; struct assignment and string init).
func (g *gen) emitMemCopy(dst, src ir.Value, n int, pos token.Pos) {
	off := 0
	for n-off >= 8 {
		tmp := g.fn.NewReg()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: tmp, A: g.addOffset(src, int64(off), pos), Size: 8, Pos: pos})
		g.emit(ir.Instr{Op: ir.OpStore, A: g.addOffset(dst, int64(off), pos), B: ir.R(tmp), Size: 8, Pos: pos})
		off += 8
	}
	for off < n {
		tmp := g.fn.NewReg()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: tmp, A: g.addOffset(src, int64(off), pos), Size: 1, Pos: pos})
		g.emit(ir.Instr{Op: ir.OpStore, A: g.addOffset(dst, int64(off), pos), B: ir.R(tmp), Size: 1, Pos: pos})
		off++
	}
}

func (g *gen) genIf(s *ast.IfStmt) {
	elseL := g.fn.NewLabel()
	endL := elseL
	if s.Else != nil {
		endL = g.fn.NewLabel()
	}
	g.genCondBranch(s.Cond, false, elseL)
	g.genStmt(s.Then)
	if s.Else != nil {
		g.emit(ir.Instr{Op: ir.OpJump, Label: endL, Pos: s.Pos()})
		g.label(elseL, s.Pos())
		g.genStmt(s.Else)
	}
	g.label(endL, s.Pos())
}

func (g *gen) genWhile(s *ast.WhileStmt) {
	top := g.fn.NewLabel()
	end := g.fn.NewLabel()
	g.label(top, s.Pos())
	g.genCondBranch(s.Cond, false, end)
	g.breaks = append(g.breaks, end)
	g.conts = append(g.conts, top)
	g.genStmt(s.Body)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	g.emit(ir.Instr{Op: ir.OpJump, Label: top, Pos: s.Pos()})
	g.label(end, s.Pos())
}

func (g *gen) genDoWhile(s *ast.DoWhileStmt) {
	top := g.fn.NewLabel()
	cond := g.fn.NewLabel()
	end := g.fn.NewLabel()
	g.label(top, s.Pos())
	g.breaks = append(g.breaks, end)
	g.conts = append(g.conts, cond)
	g.genStmt(s.Body)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	g.label(cond, s.Pos())
	g.genCondBranch(s.Cond, true, top)
	g.label(end, s.Pos())
}

func (g *gen) genFor(s *ast.ForStmt) {
	if s.Init != nil {
		g.genStmt(s.Init)
	}
	top := g.fn.NewLabel()
	post := g.fn.NewLabel()
	end := g.fn.NewLabel()
	g.label(top, s.Pos())
	if s.Cond != nil {
		g.genCondBranch(s.Cond, false, end)
	}
	g.breaks = append(g.breaks, end)
	g.conts = append(g.conts, post)
	g.genStmt(s.Body)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	g.label(post, s.Pos())
	if s.Post != nil {
		g.genExpr(s.Post)
	}
	g.emit(ir.Instr{Op: ir.OpJump, Label: top, Pos: s.Pos()})
	g.label(end, s.Pos())
}

func (g *gen) genSwitch(s *ast.SwitchStmt) {
	tag := g.rvalue(s.Tag)
	// Materialize the tag once.
	tagReg := g.fn.NewReg()
	g.emit(ir.Instr{Op: ir.OpMov, Dst: tagReg, A: tag, Pos: s.Pos()})
	end := g.fn.NewLabel()

	bodyLabels := make([]int, len(s.Cases))
	defaultIdx := -1
	for i, cc := range s.Cases {
		bodyLabels[i] = g.fn.NewLabel()
		if cc.Values == nil {
			defaultIdx = i
		}
	}
	// Dispatch: compare against each case constant in order.
	for i, cc := range s.Cases {
		for _, v := range cc.Values {
			lit, ok := v.(*ast.IntLit)
			if !ok {
				g.failf(v.Pos(), "case value must be constant")
			}
			cv := g.fn.NewReg()
			g.emit(ir.Instr{Op: ir.OpConst, Dst: cv, A: ir.C(lit.Value), Pos: v.Pos()})
			cmp := g.fn.NewReg()
			g.emit(ir.Instr{Op: ir.OpEq, Dst: cmp, A: ir.R(tagReg), B: ir.R(cv), Pos: v.Pos()})
			g.emit(ir.Instr{Op: ir.OpBr, A: ir.R(cmp), Label: bodyLabels[i], Pos: v.Pos()})
		}
	}
	if defaultIdx >= 0 {
		g.emit(ir.Instr{Op: ir.OpJump, Label: bodyLabels[defaultIdx], Pos: s.Pos()})
	} else {
		g.emit(ir.Instr{Op: ir.OpJump, Label: end, Pos: s.Pos()})
	}
	// Bodies. MiniC clauses do not fall through; a trailing break in the
	// source simply jumps to end as well.
	g.breaks = append(g.breaks, end)
	for i, cc := range s.Cases {
		g.label(bodyLabels[i], cc.Pos())
		for _, st := range cc.Body {
			g.genStmt(st)
		}
		g.emit(ir.Instr{Op: ir.OpJump, Label: end, Pos: cc.Pos()})
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.label(end, s.Pos())
}

// genCondBranch evaluates cond and branches to target when the condition's
// truth equals want. Short-circuits && and || without materializing 0/1.
func (g *gen) genCondBranch(cond ast.Expr, want bool, target int) {
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.AndAnd:
			if want {
				// (a && b) true -> target: a false skips, b true jumps.
				skip := g.fn.NewLabel()
				g.genCondBranch(e.X, false, skip)
				g.genCondBranch(e.Y, true, target)
				g.label(skip, e.Pos())
			} else {
				g.genCondBranch(e.X, false, target)
				g.genCondBranch(e.Y, false, target)
			}
			return
		case token.OrOr:
			if want {
				g.genCondBranch(e.X, true, target)
				g.genCondBranch(e.Y, true, target)
			} else {
				skip := g.fn.NewLabel()
				g.genCondBranch(e.X, true, skip)
				g.genCondBranch(e.Y, false, target)
				g.label(skip, e.Pos())
			}
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.Bang {
			g.genCondBranch(e.X, !want, target)
			return
		}
	}
	v := g.rvalue(cond)
	if want {
		g.emit(ir.Instr{Op: ir.OpBr, A: v, Label: target, Pos: cond.Pos()})
		return
	}
	// Branch when false: invert with eq-zero.
	z := g.fn.NewReg()
	g.emit(ir.Instr{Op: ir.OpConst, Dst: z, A: ir.C(0), Pos: cond.Pos()})
	inv := g.fn.NewReg()
	var reg ir.Value = v
	if v.Kind == ir.VKConst {
		t := g.fn.NewReg()
		g.emit(ir.Instr{Op: ir.OpConst, Dst: t, A: v, Pos: cond.Pos()})
		reg = ir.R(t)
	}
	g.emit(ir.Instr{Op: ir.OpEq, Dst: inv, A: reg, B: ir.R(z), Pos: cond.Pos()})
	g.emit(ir.Instr{Op: ir.OpBr, A: ir.R(inv), Label: target, Pos: cond.Pos()})
}
