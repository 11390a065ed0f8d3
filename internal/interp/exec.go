package interp

import (
	"encoding/binary"
	"fmt"

	"inlinec/internal/profile"
)

// execBC runs entry(args) to completion over the translated bytecode.
// It is the bytecode twin of exec: one dense switch over pre-decoded
// instructions, with pc, the register file, and the code array held in
// locals so the hot path never chases a frame pointer. Every counter
// (IL, control, calls, returns, extern, ptr, site, func) increments at
// exactly the same semantic points as the switch engine — including the
// per-component budget checkpoints inside fused superinstructions — so
// RunStats are bit-identical between engines.
func (m *Machine) execBC(entry *bcFunc, args []int64, st *profile.RunStats) (int64, error) {
	var sp int64 // stack-segment high-water offset
	depth := 0

	f, err := m.pushBC(depth, entry, args, noReg, &sp, st)
	if err != nil {
		return 0, err
	}
	depth++

	maxIL := m.opts.MaxIL
	trace := m.opts.Trace
	mem := m.mem

	// Loads and stores that land inside a segment's allocated prefix hit
	// its slice directly; anything else falls back to Memory, which reads
	// unallocated bytes as zero, grows a segment on a store, or returns
	// the exact fault. The stack and heap slices are read through mem at
	// each access, because a push, an extern call or that fallback can
	// grow (and so move) them; the globals segment never moves.
	globB := mem.globals.b

	// Current-frame state in locals; reloaded on call and return.
	bf := f.bf
	code := bf.code
	regs := f.regs
	base := f.base           // absolute frame address
	frel := base - StackBase // frame offset within the stack segment
	pc := int32(0)

	// Run counters in locals, flushed into st on every exit path.
	var il, ctl, calls, rets, externs, ptrs int64
	defer func() {
		st.IL += il
		st.Control += ctl
		st.Calls += calls
		st.Returns += rets
		st.ExternCalls += externs
		st.PtrCalls += ptrs
	}()

	// fault builds a RuntimeError at the current instruction's source
	// position (cold path only).
	fault := func(pc int32, msg string) error {
		return &RuntimeError{Func: bf.fn.Name, Pos: bf.fn.Code[bf.origPC[pc]].Pos, Msg: msg}
	}
	// fault2 is fault for the second component of a fused pair.
	fault2 := func(pc int32, msg string) error {
		return &RuntimeError{Func: bf.fn.Name, Pos: bf.fn.Code[bf.origPC[pc]+1].Pos, Msg: msg}
	}
	budgetMsg := func() string {
		return fmt.Sprintf("instruction budget exceeded (%d)", maxIL)
	}

	var retVal int64
	for depth > 0 {
		in := &code[pc]
		il++
		if il > maxIL {
			if in.op == bcEnd {
				il--
				return 0, &RuntimeError{Func: bf.fn.Name, Msg: "fell off the end of the function"}
			}
			return 0, fault(pc, budgetMsg())
		}
		if trace != nil && in.op != bcEnd {
			trace(bf.fn, int(bf.origPC[pc]))
		}

		switch in.op {
		case bcEnd:
			il--
			return 0, &RuntimeError{Func: bf.fn.Name, Msg: "fell off the end of the function"}
		case bcNop:
			pc++
		case bcConst:
			regs[in.dst] = in.imm
			pc++
		case bcMov:
			regs[in.dst] = regs[in.a]
			pc++
		case bcNeg:
			regs[in.dst] = -regs[in.a]
			pc++
		case bcNot:
			regs[in.dst] = ^regs[in.a]
			pc++
		case bcAdd:
			regs[in.dst] = regs[in.a] + regs[in.b]
			pc++
		case bcSub:
			regs[in.dst] = regs[in.a] - regs[in.b]
			pc++
		case bcMul:
			regs[in.dst] = regs[in.a] * regs[in.b]
			pc++
		case bcDiv:
			b := regs[in.b]
			if b == 0 {
				return 0, fault(pc, "division by zero")
			}
			regs[in.dst] = regs[in.a] / b
			pc++
		case bcRem:
			b := regs[in.b]
			if b == 0 {
				return 0, fault(pc, "division by zero")
			}
			regs[in.dst] = regs[in.a] % b
			pc++
		case bcAnd:
			regs[in.dst] = regs[in.a] & regs[in.b]
			pc++
		case bcOr:
			regs[in.dst] = regs[in.a] | regs[in.b]
			pc++
		case bcXor:
			regs[in.dst] = regs[in.a] ^ regs[in.b]
			pc++
		case bcShl:
			regs[in.dst] = regs[in.a] << uint64(regs[in.b]&63)
			pc++
		case bcShr:
			regs[in.dst] = int64(uint64(regs[in.a]) >> uint64(regs[in.b]&63))
			pc++
		case bcEq:
			regs[in.dst] = b2i(regs[in.a] == regs[in.b])
			pc++
		case bcNe:
			regs[in.dst] = b2i(regs[in.a] != regs[in.b])
			pc++
		case bcLt:
			regs[in.dst] = b2i(regs[in.a] < regs[in.b])
			pc++
		case bcLe:
			regs[in.dst] = b2i(regs[in.a] <= regs[in.b])
			pc++
		case bcGt:
			regs[in.dst] = b2i(regs[in.a] > regs[in.b])
			pc++
		case bcGe:
			regs[in.dst] = b2i(regs[in.a] >= regs[in.b])
			pc++
		case bcLoad1:
			addr := regs[in.a]
			if off := addr - StackBase; uint64(off) < uint64(len(mem.stack.b)) {
				regs[in.dst] = int64(mem.stack.b[off])
			} else if off := addr - HeapBase; uint64(off) < uint64(len(mem.heap.b)) {
				regs[in.dst] = int64(mem.heap.b[off])
			} else if off := addr - GlobalsBase; uint64(off) < uint64(len(globB)) {
				regs[in.dst] = int64(globB[off])
			} else {
				v, err := mem.Load(addr, 1)
				if err != nil {
					return 0, fault(pc, err.Error())
				}
				regs[in.dst] = v
			}
			pc++
		case bcLoad8:
			addr := regs[in.a]
			if off := addr - StackBase; off >= 0 && off <= int64(len(mem.stack.b))-8 {
				regs[in.dst] = int64(binary.LittleEndian.Uint64(mem.stack.b[off:]))
			} else if off := addr - HeapBase; off >= 0 && off <= int64(len(mem.heap.b))-8 {
				regs[in.dst] = int64(binary.LittleEndian.Uint64(mem.heap.b[off:]))
			} else if off := addr - GlobalsBase; off >= 0 && off <= int64(len(globB))-8 {
				regs[in.dst] = int64(binary.LittleEndian.Uint64(globB[off:]))
			} else {
				v, err := mem.Load(addr, 8)
				if err != nil {
					return 0, fault(pc, err.Error())
				}
				regs[in.dst] = v
			}
			pc++
		case bcLoadN:
			v, err := mem.Load(regs[in.a], int(in.aux))
			if err != nil {
				return 0, fault(pc, err.Error())
			}
			regs[in.dst] = v
			pc++
		case bcStore1:
			addr := regs[in.a]
			if off := addr - StackBase; uint64(off) < uint64(len(mem.stack.b)) {
				mem.stack.b[off] = byte(regs[in.b])
			} else if off := addr - HeapBase; uint64(off) < uint64(len(mem.heap.b)) {
				mem.heap.b[off] = byte(regs[in.b])
			} else if off := addr - GlobalsBase; uint64(off) < uint64(len(globB)) {
				globB[off] = byte(regs[in.b])
			} else if err := mem.Store(addr, 1, regs[in.b]); err != nil {
				return 0, fault(pc, err.Error())
			}
			pc++
		case bcStore8:
			addr := regs[in.a]
			if off := addr - StackBase; off >= 0 && off <= int64(len(mem.stack.b))-8 {
				binary.LittleEndian.PutUint64(mem.stack.b[off:], uint64(regs[in.b]))
			} else if off := addr - HeapBase; off >= 0 && off <= int64(len(mem.heap.b))-8 {
				binary.LittleEndian.PutUint64(mem.heap.b[off:], uint64(regs[in.b]))
			} else if off := addr - GlobalsBase; off >= 0 && off <= int64(len(globB))-8 {
				binary.LittleEndian.PutUint64(globB[off:], uint64(regs[in.b]))
			} else if err := mem.Store(addr, 8, regs[in.b]); err != nil {
				return 0, fault(pc, err.Error())
			}
			pc++
		case bcStoreN:
			if err := mem.Store(regs[in.a], int(in.aux), regs[in.b]); err != nil {
				return 0, fault(pc, err.Error())
			}
			pc++
		case bcAddrL:
			regs[in.dst] = base + in.imm
			pc++
		case bcJump:
			ctl++
			pc = in.aux
		case bcBr:
			ctl++
			if regs[in.a] != 0 {
				pc = in.aux
			} else {
				pc++
			}

		// --- superinstructions -------------------------------------------
		// Each fused form counts its components as separate IL
		// instructions with their own budget checkpoints, matching the
		// unfused execution order exactly: fault positions and
		// partially-updated register state line up with the switch engine.
		case bcEqBr, bcNeBr, bcLtBr, bcLeBr, bcGtBr, bcGeBr:
			var v int64
			a, b := regs[in.a], regs[in.b]
			switch in.op {
			case bcEqBr:
				v = b2i(a == b)
			case bcNeBr:
				v = b2i(a != b)
			case bcLtBr:
				v = b2i(a < b)
			case bcLeBr:
				v = b2i(a <= b)
			case bcGtBr:
				v = b2i(a > b)
			default:
				v = b2i(a >= b)
			}
			regs[in.dst] = v
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			ctl++
			if v != 0 {
				pc = in.aux
			} else {
				pc++
			}
		case bcLoadL1:
			regs[in.a] = base + in.imm
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			regs[in.dst] = int64(mem.stack.b[frel+in.imm])
			pc++
		case bcLoadL8:
			regs[in.a] = base + in.imm
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			regs[in.dst] = int64(binary.LittleEndian.Uint64(mem.stack.b[frel+in.imm:]))
			pc++
		case bcStoreL1:
			regs[in.a] = base + in.imm
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			mem.stack.b[frel+in.imm] = byte(regs[in.b])
			pc++
		case bcStoreL8:
			regs[in.a] = base + in.imm
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			binary.LittleEndian.PutUint64(mem.stack.b[frel+in.imm:], uint64(regs[in.b]))
			pc++
		case bcLoadG1:
			regs[in.a] = in.imm
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			regs[in.dst] = int64(globB[in.aux])
			pc++
		case bcLoadG8:
			regs[in.a] = in.imm
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			regs[in.dst] = int64(binary.LittleEndian.Uint64(globB[in.aux:]))
			pc++
		case bcStoreG1:
			regs[in.a] = in.imm
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			globB[in.aux] = byte(regs[in.b])
			pc++
		case bcStoreG8:
			regs[in.a] = in.imm
			il++
			if il > maxIL {
				return 0, fault2(pc, budgetMsg())
			}
			binary.LittleEndian.PutUint64(globB[in.aux:], uint64(regs[in.b]))
			pc++

		// --- calls and returns -------------------------------------------
		case bcCall:
			ci := &bf.calls[in.aux]
			calls++
			m.siteCounts[ci.site]++
			callArgs := ci.constArgs
			if callArgs == nil {
				callArgs = m.scratchArgs(len(ci.args))
				for i, r := range ci.args {
					callArgs[i] = regs[r]
				}
			}
			if ci.user != nil {
				f.pc = pc + 1 // resume after the call on return
				nf, err := m.pushBC(depth, ci.user, callArgs, ci.dst, &sp, st)
				if err != nil {
					return 0, fault(pc, err.Error())
				}
				f = nf
				depth++
				bf = f.bf
				code = bf.code
				regs = f.regs
				base = f.base
				frel = base - StackBase
				pc = 0
				continue
			}
			if ci.ext == nil {
				return 0, fault(pc, "unimplemented extern "+ci.sym)
			}
			externs++
			m.funcCounts[ci.extID]++
			rv, err := ci.ext(m, callArgs)
			if err != nil {
				if _, isExit := err.(*exitError); isExit {
					return 0, err
				}
				return 0, fault(pc, err.Error())
			}
			rets++
			if ci.dst != noReg {
				regs[ci.dst] = rv
			}
			pc++
		case bcCallPtr:
			ci := &bf.calls[in.aux]
			calls++
			ptrs++
			m.siteCounts[ci.site]++
			target := regs[in.a]
			callArgs := ci.constArgs
			if callArgs == nil {
				callArgs = m.scratchArgs(len(ci.args))
				for i, r := range ci.args {
					callArgs[i] = regs[r]
				}
			}
			var pt *ptrTarget
			if rel := target - FuncBase; rel >= 0 && rel%FuncStride == 0 {
				if idx := rel / FuncStride; idx < int64(len(m.ptrTargets)) {
					pt = &m.ptrTargets[idx]
				}
			}
			if pt != nil && pt.user != nil {
				f.pc = pc + 1
				nf, err := m.pushBC(depth, pt.user, callArgs, ci.dst, &sp, st)
				if err != nil {
					return 0, fault(pc, err.Error())
				}
				m.bumpPtrTarget(int(ci.site), pt.user.id)
				f = nf
				depth++
				bf = f.bf
				code = bf.code
				regs = f.regs
				base = f.base
				frel = base - StackBase
				pc = 0
				continue
			}
			if pt != nil && pt.ext != nil {
				externs++
				m.funcCounts[pt.id]++
				m.bumpPtrTarget(int(ci.site), int(pt.id))
				rv, err := pt.ext(m, callArgs)
				if err != nil {
					if _, isExit := err.(*exitError); isExit {
						return 0, err
					}
					return 0, fault(pc, err.Error())
				}
				rets++
				if ci.dst != noReg {
					regs[ci.dst] = rv
				}
				pc++
				continue
			}
			return 0, fault(pc, fmt.Sprintf("call through invalid function pointer %#x", target))
		case bcRet, bcRetVoid:
			rets++
			if in.op == bcRet {
				retVal = regs[in.a]
			} else {
				retVal = 0
			}
			depth--
			sp = 0
			if depth > 0 {
				retDst := f.retDst
				f = &m.bframes[depth-1]
				bf = f.bf
				code = bf.code
				regs = f.regs
				base = f.base
				frel = base - StackBase
				pc = f.pc
				sp = frel + int64(bf.fn.FrameSize)
				if retDst != noReg {
					regs[retDst] = retVal
				}
			}

		// --- cold faults --------------------------------------------------
		case bcBadAddrG:
			return 0, fault(pc, "unknown global "+bf.syms[in.aux])
		case bcBadAddrF:
			return 0, fault(pc, "unknown function "+bf.syms[in.aux])
		default:
			return 0, fault(pc, "unhandled opcode "+bf.syms[in.aux])
		}
	}
	return retVal, nil
}

// pushBC activates bf at depth, mirroring push for the bytecode engine:
// pooled frame storage, zeroed registers with the constant pool copied
// into the tail, a zeroed stack frame, and parameters stored into their
// slots. Counter updates (funcCounts, MaxStack) are identical to push.
func (m *Machine) pushBC(depth int, bf *bcFunc, callArgs []int64, retDst int32, sp *int64, st *profile.RunStats) (*bcFrame, error) {
	fn := bf.fn
	base := (*sp + 15) &^ 15
	end := base + int64(fn.FrameSize)
	if end > int64(m.mem.StackSize()) {
		return nil, fmt.Errorf("control stack overflow entering %s (frame %d bytes, used %d of %d)",
			fn.Name, fn.FrameSize, base, m.mem.StackSize())
	}
	if depth == len(m.bframes) {
		m.bframes = append(m.bframes, bcFrame{})
	}
	f := &m.bframes[depth]
	f.bf = bf
	f.base = StackBase + base
	f.pc = 0
	f.retDst = retDst
	if cap(f.regs) >= bf.numRegs {
		f.regs = f.regs[:bf.numRegs]
		user := f.regs[:fn.NumRegs]
		for i := range user {
			user[i] = 0
		}
	} else {
		f.regs = make([]int64, bf.numRegs)
	}
	copy(f.regs[fn.NumRegs:], bf.consts)

	m.mem.stack.grow(end)
	stack := m.mem.stack.b
	clear(stack[base:end])
	for i := 0; i < fn.NumParams && i < len(callArgs); i++ {
		slot := &fn.Slots[i]
		off := base + int64(slot.Offset)
		if slot.Size == 1 {
			stack[off] = byte(callArgs[i])
		} else if off+8 <= int64(len(stack)) {
			binary.LittleEndian.PutUint64(stack[off:], uint64(callArgs[i]))
		} else {
			if err := m.mem.Store(StackBase+off, 8, callArgs[i]); err != nil {
				return nil, err
			}
			stack = m.mem.stack.b
		}
	}
	*sp = end
	if *sp > st.MaxStack {
		st.MaxStack = *sp
	}
	m.funcCounts[bf.id]++
	return f, nil
}
