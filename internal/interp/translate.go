package interp

import (
	"inlinec/internal/ir"
)

// translate compiles every loaded function into bytecode. It runs after
// NewMachine's resolution passes and consumes their results — the dense
// function ids, resolved call targets, branch targets and register read
// counts in cfs — so the bytecode engine observes exactly the same
// counter layout as the switch engine.
func (m *Machine) translate(cfs []*compiledFunc) {
	globalAddr, globalsLen := layoutGlobals(m.Mod)
	m.bfuncs = make(map[string]*bcFunc, len(cfs))
	bfs := make([]*bcFunc, len(cfs))
	for i, cf := range cfs {
		bf := &bcFunc{fn: cf.fn, id: cf.id}
		bfs[i] = bf
		m.bfuncs[cf.fn.Name] = bf
	}
	scratch := &translateScratch{pool: make(map[int64]int32)}
	for i, cf := range cfs {
		m.translateFunc(cf, bfs[i], globalAddr, globalsLen, scratch)
	}

	// Dense function-pointer table over user functions and declared
	// externs (the only symbols with runtime addresses).
	m.ptrTargets = make([]ptrTarget, len(m.Mod.Funcs)+len(m.Mod.Externs))
	for addr, cf := range m.byAddr {
		m.ptrTargets[(addr-FuncBase)/FuncStride] = ptrTarget{user: m.bfuncs[cf.fn.Name]}
	}
	for addr, et := range m.extByAddr {
		m.ptrTargets[(addr-FuncBase)/FuncStride] = ptrTarget{ext: et.impl, id: int32(et.id)}
	}
}

// maxFoldRun bounds how many dead constants fold into one group, so a
// group's IR count always fits bcInstr.n.
const maxFoldRun = 64

// isCmp reports whether op is a comparison fusable with a following
// conditional branch.
func isCmp(op ir.Op) bool {
	return op >= ir.OpEq && op <= ir.OpGe
}

// binaryBC maps a binary ir.Op to its bytecode opcode. The two opcode
// spaces run in the same order, so the mapping is an offset.
func binaryBC(op ir.Op) bcOp {
	if op >= ir.OpEq { // Eq..Ge follow Neg/Not in the ir numbering
		return bcEq + bcOp(op-ir.OpEq)
	}
	return bcAdd + bcOp(op-ir.OpAdd)
}

// cmpBrBC maps a comparison ir.Op to its fused compare-branch opcode.
func cmpBrBC(op ir.Op) bcOp {
	return bcEqBr + bcOp(op-ir.OpEq)
}

// negCmpBrBC maps a comparison ir.Op (indexed from OpEq) to the
// compare-branch taken when the comparison is false.
var negCmpBrBC = [...]bcOp{bcNeBr, bcEqBr, bcGeBr, bcGtBr, bcLeBr, bcLtBr}

// isNegation reports whether in computes the logical not of r
// (eq s = r, #0).
func isNegation(in *ir.Instr, r ir.Reg) bool {
	return in.Op == ir.OpEq && in.A.Kind == ir.VKReg && in.A.Reg == r &&
		in.B.Kind == ir.VKConst && in.B.Imm == 0
}

// loadWidthOK reports whether an access width has a specialized opcode.
func loadWidthOK(size int) bool { return size == 1 || size == 8 }

// translateScratch is translation state reused from one function to the
// next.
type translateScratch struct {
	irToBC []int32
	pool   map[int64]int32
}

// isBranchBC reports whether op's aux is a branch target.
func isBranchBC(op bcOp) bool {
	return op == bcJump || op == bcBr || op >= bcEqBr && op <= bcGeBr
}

func (m *Machine) translateFunc(cf *compiledFunc, bf *bcFunc, globalAddr map[string]int64, globalsLen int, scratch *translateScratch) {
	fn := cf.fn
	code := fn.Code
	reads := cf.reads

	// Constant-pool registers: every constant operand is assigned a
	// register index past fn.NumRegs, preloaded at function entry.
	// Binary ops then read registers unconditionally — no operand-kind
	// branch in the dispatch loop, and no opcode explosion into
	// reg/const variants.
	pool := scratch.pool
	clear(pool)
	poolReg := func(v int64) int32 {
		if r, ok := pool[v]; ok {
			return r
		}
		r := int32(fn.NumRegs + len(bf.consts))
		pool[v] = r
		bf.consts = append(bf.consts, v)
		return r
	}
	operand := func(v ir.Value) int32 {
		if v.Kind == ir.VKConst {
			return poolReg(v.Imm)
		}
		return int32(v.Reg)
	}
	symIdx := func(s string) int32 {
		bf.syms = append(bf.syms, s)
		return int32(len(bf.syms) - 1)
	}
	// deadConst reports whether code[pc] only loads a constant into a
	// register nothing reads: it has no effect but its IL count.
	deadConst := func(pc int) bool {
		in := &code[pc]
		return (in.Op == ir.OpConst || in.Op == ir.OpMov && in.A.Kind == ir.VKConst) &&
			reads[in.Dst] == 0
	}
	// brOn reports whether code[pc] is a conditional branch on r.
	brOn := func(pc int, r ir.Reg) bool {
		in := &code[pc]
		return in.Op == ir.OpBr && in.A.Kind == ir.VKReg && in.A.Reg == r
	}

	// Each emitted instruction covers at least one IR instruction, plus
	// the trailing bcEnd, so both arrays are allocated once at their
	// bound. start is the first IR index of the pending group of dead
	// constants (-1 when none); emit folds it into the next instruction,
	// whose last component is code[last].
	bf.code = make([]bcInstr, 0, len(code)+1)
	bf.origPC = make([]int32, 0, len(code)+1)
	start := -1
	emit := func(pc, last int, in bcInstr) {
		if start >= 0 {
			pc, start = start, -1
		}
		in.n = uint8(last - pc + 1)
		bf.code = append(bf.code, in)
		bf.origPC = append(bf.origPC, int32(pc))
	}

	// irToBC[pc] is the bytecode index of the instruction after label
	// pc. Branches are emitted with their IR target label in aux and
	// resolve through it after emission; only label entries are written.
	if cap(scratch.irToBC) < len(code) {
		scratch.irToBC = make([]int32, len(code))
	}
	irToBC := scratch.irToBC[:len(code)]

	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.Op {
		case ir.OpLabel:
			// Labels vanish: they are not executed, not counted, and only
			// exist as branch targets. Nothing folds across one.
			irToBC[pc] = int32(len(bf.code))
		case ir.OpNop:
			emit(pc, pc, bcInstr{op: bcNop})
		case ir.OpConst, ir.OpMov:
			if in.Op == ir.OpMov && in.A.Kind != ir.VKConst {
				emit(pc, pc, bcInstr{op: bcMov, dst: int32(in.Dst), a: int32(in.A.Reg)})
				break
			}
			// A dead constant folds into the next instruction of its
			// block; never into bcEnd, so a group always ends on an
			// instruction that runs.
			if deadConst(pc) && pc+1 < len(code) && code[pc+1].Op != ir.OpLabel &&
				(start < 0 || pc-start < maxFoldRun) {
				if start < 0 {
					start = pc
				}
				continue
			}
			emit(pc, pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: in.A.Imm})
		case ir.OpNeg:
			emit(pc, pc, bcInstr{op: bcNeg, dst: int32(in.Dst), a: operand(in.A)})
		case ir.OpNot:
			emit(pc, pc, bcInstr{op: bcNot, dst: int32(in.Dst), a: operand(in.A)})
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			// A compare whose only reader is a conditional branch fuses
			// with it, across dead constants, either directly (cmp r;
			// br r) or through a negation whose result is also read
			// once (cmp r; eq s = r, #0; br s), which becomes the
			// inverted compare-branch. Labels are the only branch
			// targets, so nothing can jump into the group.
			if isCmp(in.Op) && reads[in.Dst] == 1 {
				j := pc + 1
				for j < len(code) && j-pc <= maxFoldRun && deadConst(j) {
					j++
				}
				op, br := cmpBrBC(in.Op), -1
				switch {
				case j < len(code) && brOn(j, in.Dst):
					br = j
				case j+1 < len(code) && isNegation(&code[j], in.Dst) && reads[code[j].Dst] == 1 && brOn(j+1, code[j].Dst):
					op, br = negCmpBrBC[in.Op-ir.OpEq], j+1
				}
				if br >= 0 {
					emit(pc, br, bcInstr{op: op, a: operand(in.A), b: operand(in.B), aux: cf.branchPC[br]})
					pc = br
					continue
				}
			}
			emit(pc, pc, bcInstr{op: binaryBC(in.Op), dst: int32(in.Dst), a: operand(in.A), b: operand(in.B)})
		case ir.OpLoad:
			op := bcLoadN
			switch in.Size {
			case 1:
				op = bcLoad1
			case 8:
				op = bcLoad8
			}
			emit(pc, pc, bcInstr{op: op, dst: int32(in.Dst), a: operand(in.A), aux: int32(in.Size)})
		case ir.OpStore:
			op := bcStoreN
			switch in.Size {
			case 1:
				op = bcStore1
			case 8:
				op = bcStore8
			}
			emit(pc, pc, bcInstr{op: op, a: operand(in.A), b: operand(in.B), aux: int32(in.Size)})
		case ir.OpAddrL:
			slot := fn.Slots[in.A.Imm]
			off := int64(slot.Offset)
			// addrl + load/store through the just-formed address fuses
			// into a direct frame access when the access provably stays
			// inside the frame (which push has already bounds-checked
			// against the stack segment).
			if pc+1 < len(code) {
				nxt := &code[pc+1]
				if nxt.Op == ir.OpLoad && nxt.A.Kind == ir.VKReg && nxt.A.Reg == in.Dst &&
					loadWidthOK(nxt.Size) && off+int64(nxt.Size) <= int64(fn.FrameSize) {
					op := bcLoadL8
					if nxt.Size == 1 {
						op = bcLoadL1
					}
					emit(pc, pc+1, bcInstr{op: op, dst: int32(nxt.Dst), a: int32(in.Dst), imm: off})
					pc++
					continue
				}
				if nxt.Op == ir.OpStore && nxt.A.Kind == ir.VKReg && nxt.A.Reg == in.Dst &&
					loadWidthOK(nxt.Size) && off+int64(nxt.Size) <= int64(fn.FrameSize) {
					op := bcStoreL8
					if nxt.Size == 1 {
						op = bcStoreL1
					}
					emit(pc, pc+1, bcInstr{op: op, a: int32(in.Dst), b: operand(nxt.B), imm: off})
					pc++
					continue
				}
			}
			emit(pc, pc, bcInstr{op: bcAddrL, dst: int32(in.Dst), imm: off})
		case ir.OpAddrG:
			ga, ok := globalAddr[in.Sym]
			if !ok {
				emit(pc, pc, bcInstr{op: bcBadAddrG, aux: symIdx(in.Sym)})
				break
			}
			goff := ga - GlobalsBase
			if pc+1 < len(code) {
				nxt := &code[pc+1]
				if nxt.Op == ir.OpLoad && nxt.A.Kind == ir.VKReg && nxt.A.Reg == in.Dst &&
					loadWidthOK(nxt.Size) && goff+int64(nxt.Size) <= int64(globalsLen) {
					op := bcLoadG8
					if nxt.Size == 1 {
						op = bcLoadG1
					}
					emit(pc, pc+1, bcInstr{op: op, dst: int32(nxt.Dst), a: int32(in.Dst), aux: int32(goff), imm: ga})
					pc++
					continue
				}
				if nxt.Op == ir.OpStore && nxt.A.Kind == ir.VKReg && nxt.A.Reg == in.Dst &&
					loadWidthOK(nxt.Size) && goff+int64(nxt.Size) <= int64(globalsLen) {
					op := bcStoreG8
					if nxt.Size == 1 {
						op = bcStoreG1
					}
					emit(pc, pc+1, bcInstr{op: op, a: int32(in.Dst), b: operand(nxt.B), aux: int32(goff), imm: ga})
					pc++
					continue
				}
			}
			emit(pc, pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: ga})
		case ir.OpAddrF:
			if addr, ok := m.addrByName[in.Sym]; ok {
				emit(pc, pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: addr})
			} else {
				emit(pc, pc, bcInstr{op: bcBadAddrF, aux: symIdx(in.Sym)})
			}
		case ir.OpJump:
			emit(pc, pc, bcInstr{op: bcJump, aux: cf.branchPC[pc]})
		case ir.OpBr:
			emit(pc, pc, bcInstr{op: bcBr, a: operand(in.A), aux: cf.branchPC[pc]})
		case ir.OpCall, ir.OpCallPtr:
			info := bcCallInfo{site: int32(in.CallID), dst: int32(in.Dst), sym: in.Sym}
			if in.Op == ir.OpCall {
				ct := &cf.callees[pc]
				if ct.user != nil {
					info.user = m.bfuncs[ct.user.fn.Name]
				} else {
					info.ext = ct.ext
					info.extID = int32(ct.id)
				}
			}
			info.args = make([]int32, len(in.Args))
			allConst := true
			for i, a := range in.Args {
				if a.Kind == ir.VKConst {
					info.args[i] = poolReg(a.Imm)
				} else {
					info.args[i] = int32(a.Reg)
					allConst = false
				}
			}
			if allConst {
				// call-with-const-args: the argument vector is fully known
				// at translate time.
				info.constArgs = make([]int64, len(in.Args))
				for i, a := range in.Args {
					info.constArgs[i] = a.Imm
				}
			}
			op := bcCall
			var target int32
			if in.Op == ir.OpCallPtr {
				op = bcCallPtr
				target = operand(in.A)
			}
			emit(pc, pc, bcInstr{op: op, a: target, aux: int32(len(bf.calls))})
			bf.calls = append(bf.calls, info)
		case ir.OpRet:
			if in.A.Kind == ir.VKNone {
				emit(pc, pc, bcInstr{op: bcRetVoid})
			} else {
				emit(pc, pc, bcInstr{op: bcRet, a: operand(in.A)})
			}
		default:
			emit(pc, pc, bcInstr{op: bcBadOp, aux: symIdx(in.Op.String())})
		}
	}
	bf.code = append(bf.code, bcInstr{op: bcEnd})
	bf.origPC = append(bf.origPC, int32(len(code)))

	for i := range bf.code {
		if in := &bf.code[i]; isBranchBC(in.op) {
			in.aux = irToBC[in.aux]
		}
	}
	bf.numRegs = fn.NumRegs + len(bf.consts)
}
