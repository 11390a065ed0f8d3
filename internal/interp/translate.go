package interp

import (
	"inlinec/internal/ir"
)

// translate compiles every loaded function into bytecode. It runs after
// NewMachine's resolution passes and consumes their results — the dense
// function ids, resolved call targets, and branch targets in cfs — so
// the bytecode engine observes exactly the same counter layout as the
// switch engine. fuse enables superinstruction formation; the trace hook
// needs to observe every instruction individually, so tracing machines
// translate unfused.
func (m *Machine) translate(cfs []*compiledFunc, fuse bool) {
	globalAddr, globalsLen := layoutGlobals(m.Mod)
	m.bfuncs = make(map[string]*bcFunc, len(cfs))
	bfs := make([]*bcFunc, len(cfs))
	for i, cf := range cfs {
		bf := &bcFunc{fn: cf.fn, id: cf.id}
		bfs[i] = bf
		m.bfuncs[cf.fn.Name] = bf
	}
	for i, cf := range cfs {
		m.translateFunc(cf, bfs[i], fuse, globalAddr, globalsLen)
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

// loadWidthOK reports whether an access width has a specialized opcode.
func loadWidthOK(size int) bool { return size == 1 || size == 8 }

func (m *Machine) translateFunc(cf *compiledFunc, bf *bcFunc, fuse bool, globalAddr map[string]int64, globalsLen int) {
	fn := cf.fn
	code := fn.Code

	// Constant-pool registers: every constant operand is assigned a
	// register index past fn.NumRegs, preloaded at function entry.
	// Binary ops then read registers unconditionally — no operand-kind
	// branch in the dispatch loop, and no opcode explosion into
	// reg/const variants.
	pool := make(map[int64]int32)
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
	// Each IR instruction emits at most one bytecode, plus the trailing
	// bcEnd, so both arrays are allocated once at their bound.
	bf.code = make([]bcInstr, 0, len(code)+1)
	bf.origPC = make([]int32, 0, len(code)+1)
	emit := func(origPC int, in bcInstr) {
		bf.code = append(bf.code, in)
		bf.origPC = append(bf.origPC, int32(origPC))
	}

	// irToBC[pc] is the bytecode index of the first instruction emitted
	// at or after IR index pc; branch targets (always labels, which emit
	// nothing) resolve through it after emission.
	irToBC := make([]int32, len(code)+1)
	type patch struct {
		bcPC     int
		irTarget int32
	}
	var patches []patch

	for pc := 0; pc < len(code); pc++ {
		irToBC[pc] = int32(len(bf.code))
		in := &code[pc]
		switch in.Op {
		case ir.OpLabel:
			// Labels vanish: they are not executed, not counted, and only
			// exist as branch targets, which irToBC already records.
		case ir.OpNop:
			emit(pc, bcInstr{op: bcNop})
		case ir.OpConst:
			emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: in.A.Imm})
		case ir.OpMov:
			if in.A.Kind == ir.VKConst {
				emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: in.A.Imm})
			} else {
				emit(pc, bcInstr{op: bcMov, dst: int32(in.Dst), a: int32(in.A.Reg)})
			}
		case ir.OpNeg:
			emit(pc, bcInstr{op: bcNeg, dst: int32(in.Dst), a: operand(in.A)})
		case ir.OpNot:
			emit(pc, bcInstr{op: bcNot, dst: int32(in.Dst), a: operand(in.A)})
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			// compare + conditional branch on the compare's result fuses
			// when the pair is adjacent (labels are the only branch
			// targets, so nothing can jump between adjacent instructions).
			if fuse && isCmp(in.Op) && pc+1 < len(code) {
				if br := &code[pc+1]; br.Op == ir.OpBr && br.A.Kind == ir.VKReg && br.A.Reg == in.Dst {
					emit(pc, bcInstr{op: cmpBrBC(in.Op), dst: int32(in.Dst), a: operand(in.A), b: operand(in.B)})
					patches = append(patches, patch{len(bf.code) - 1, cf.branchPC[pc+1]})
					irToBC[pc+1] = int32(len(bf.code) - 1)
					pc++
					continue
				}
			}
			emit(pc, bcInstr{op: binaryBC(in.Op), dst: int32(in.Dst), a: operand(in.A), b: operand(in.B)})
		case ir.OpLoad:
			op := bcLoadN
			switch in.Size {
			case 1:
				op = bcLoad1
			case 8:
				op = bcLoad8
			}
			emit(pc, bcInstr{op: op, dst: int32(in.Dst), a: operand(in.A), aux: int32(in.Size)})
		case ir.OpStore:
			op := bcStoreN
			switch in.Size {
			case 1:
				op = bcStore1
			case 8:
				op = bcStore8
			}
			emit(pc, bcInstr{op: op, a: operand(in.A), b: operand(in.B), aux: int32(in.Size)})
		case ir.OpAddrL:
			slot := fn.Slots[in.A.Imm]
			off := int64(slot.Offset)
			// addrl + load/store through the just-formed address fuses
			// into a direct frame access when the access provably stays
			// inside the frame (which push has already bounds-checked
			// against the stack segment).
			if fuse && pc+1 < len(code) {
				nxt := &code[pc+1]
				if nxt.Op == ir.OpLoad && nxt.A.Kind == ir.VKReg && nxt.A.Reg == in.Dst &&
					loadWidthOK(nxt.Size) && off+int64(nxt.Size) <= int64(fn.FrameSize) {
					op := bcLoadL8
					if nxt.Size == 1 {
						op = bcLoadL1
					}
					emit(pc, bcInstr{op: op, dst: int32(nxt.Dst), a: int32(in.Dst), imm: off})
					irToBC[pc+1] = int32(len(bf.code) - 1)
					pc++
					continue
				}
				if nxt.Op == ir.OpStore && nxt.A.Kind == ir.VKReg && nxt.A.Reg == in.Dst &&
					loadWidthOK(nxt.Size) && off+int64(nxt.Size) <= int64(fn.FrameSize) {
					op := bcStoreL8
					if nxt.Size == 1 {
						op = bcStoreL1
					}
					emit(pc, bcInstr{op: op, a: int32(in.Dst), b: operand(nxt.B), imm: off})
					irToBC[pc+1] = int32(len(bf.code) - 1)
					pc++
					continue
				}
			}
			emit(pc, bcInstr{op: bcAddrL, dst: int32(in.Dst), imm: off})
		case ir.OpAddrG:
			ga, ok := globalAddr[in.Sym]
			if !ok {
				emit(pc, bcInstr{op: bcBadAddrG, aux: symIdx(in.Sym)})
				break
			}
			goff := ga - GlobalsBase
			if fuse && pc+1 < len(code) {
				nxt := &code[pc+1]
				if nxt.Op == ir.OpLoad && nxt.A.Kind == ir.VKReg && nxt.A.Reg == in.Dst &&
					loadWidthOK(nxt.Size) && goff+int64(nxt.Size) <= int64(globalsLen) {
					op := bcLoadG8
					if nxt.Size == 1 {
						op = bcLoadG1
					}
					emit(pc, bcInstr{op: op, dst: int32(nxt.Dst), a: int32(in.Dst), aux: int32(goff), imm: ga})
					irToBC[pc+1] = int32(len(bf.code) - 1)
					pc++
					continue
				}
				if nxt.Op == ir.OpStore && nxt.A.Kind == ir.VKReg && nxt.A.Reg == in.Dst &&
					loadWidthOK(nxt.Size) && goff+int64(nxt.Size) <= int64(globalsLen) {
					op := bcStoreG8
					if nxt.Size == 1 {
						op = bcStoreG1
					}
					emit(pc, bcInstr{op: op, a: int32(in.Dst), b: operand(nxt.B), aux: int32(goff), imm: ga})
					irToBC[pc+1] = int32(len(bf.code) - 1)
					pc++
					continue
				}
			}
			emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: ga})
		case ir.OpAddrF:
			if addr, ok := m.addrByName[in.Sym]; ok {
				emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: addr})
			} else {
				emit(pc, bcInstr{op: bcBadAddrF, aux: symIdx(in.Sym)})
			}
		case ir.OpJump:
			emit(pc, bcInstr{op: bcJump})
			patches = append(patches, patch{len(bf.code) - 1, cf.branchPC[pc]})
		case ir.OpBr:
			emit(pc, bcInstr{op: bcBr, a: operand(in.A)})
			patches = append(patches, patch{len(bf.code) - 1, cf.branchPC[pc]})
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
			if fuse && allConst {
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
			emit(pc, bcInstr{op: op, a: target, aux: int32(len(bf.calls))})
			bf.calls = append(bf.calls, info)
		case ir.OpRet:
			if in.A.Kind == ir.VKNone {
				emit(pc, bcInstr{op: bcRetVoid})
			} else {
				emit(pc, bcInstr{op: bcRet, a: operand(in.A)})
			}
		default:
			emit(pc, bcInstr{op: bcBadOp, aux: symIdx(in.Op.String())})
		}
	}
	irToBC[len(code)] = int32(len(bf.code))
	emit(len(code), bcInstr{op: bcEnd})

	for _, p := range patches {
		bf.code[p.bcPC].aux = irToBC[p.irTarget]
	}
	bf.numRegs = fn.NumRegs + len(bf.consts)
}
