package inline

import (
	"fmt"
	"sort"

	"inlinec/internal/callgraph"
	"inlinec/internal/ir"
)

// planKind discriminates how an accepted arc is physically spliced.
type planKind int

const (
	// planFull is the paper's whole-body splice (the implicit default —
	// arcs without a plan entry use it).
	planFull planKind = iota
	// planPartial splices the callee's hot entry region with a guarded
	// fallback call to the original function on every cold exit.
	planPartial
	// planDevirt rewrites a pointer site as a test-and-inline of its
	// dominant profiled target, keeping the CALLPTR on the miss path.
	planDevirt
)

// expandPlan records the non-default splice for one accepted arc.
// Entries are written during serial selection and only read afterwards.
type expandPlan struct {
	kind   planKind
	target string      // planDevirt: the dominant target to test for
	region *regionPlan // planPartial: the selection-time region snapshot
}

// regionPlan is a hot entry region extracted from a callee: a snapshot
// of the body (selection-time, so expansion order cannot perturb it)
// plus the set of instruction indices that form the region.
type regionPlan struct {
	callee  *ir.Func
	include map[int]bool
	size    int // real-instruction count of the region
}

// planPartial attempts hot-region extraction for an arc whose callee was
// rejected by the per-callee size limit. It returns the plan, the
// estimated code growth, and a human-readable detail on success, or a
// nil plan and the reason no region exists.
func (il *Inliner) planPartial(a *callgraph.Arc) (plan *expandPlan, grow int, detail, why string) {
	fn := il.mod.Func(a.Callee.Name)
	if fn == nil {
		return nil, 0, "", "callee body unavailable"
	}
	// planRegion only reads the body, so the snapshot is taken only for
	// the callees that have a region.
	rp, why := planRegion(fn, il.params.MaxCalleeSize)
	if rp == nil {
		return nil, 0, "", why
	}
	rp.callee = fn.Clone()
	// Growth: the region itself, the fallback call, and the bail-out jump.
	grow = rp.size + 2
	detail = fmt.Sprintf("hot entry region %d of %d IL; cold paths fall back to %s",
		rp.size, fn.CodeSize(), fn.Name)
	return &expandPlan{kind: planPartial, region: rp}, grow, detail, ""
}

// planRegion computes the hot entry region of callee: the set of
// instructions reachable from entry through side-effect-free code, cut
// at the budget. The region is safe to execute speculatively — if
// control leaves it before returning, the fallback re-executes the
// original function from scratch, so every instruction in the region
// must be re-executable: no calls, and stores only through frame
// addresses materialized (and confined) inside the region. Returns nil
// and a reason when no usable region exists.
func planRegion(callee *ir.Func, budget int) (*regionPlan, string) {
	code := callee.Code
	labels := callee.LabelIndex()

	// Frame-address registers: stores are re-executable only when they
	// write the callee's own frame (discarded by the fallback's fresh
	// activation). Registers are single-assignment in this IL, so one
	// def-site map is sound.
	addrDef := make(map[ir.Reg]int)
	for pc := range code {
		if code[pc].Op == ir.OpAddrL && code[pc].Dst != ir.NoReg {
			addrDef[code[pc].Dst] = pc
		}
	}
	pure := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpLabel, ir.OpNop, ir.OpConst, ir.OpMov, ir.OpNeg, ir.OpNot,
			ir.OpAddrG, ir.OpAddrL, ir.OpAddrF, ir.OpLoad, ir.OpJump, ir.OpBr, ir.OpRet:
			return true
		case ir.OpStore:
			if in.A.Kind != ir.VKReg {
				return false
			}
			_, toFrame := addrDef[in.A.Reg]
			return toFrame
		default:
			return in.Op.IsBinary()
		}
	}

	// Deterministic BFS from the entry. Successors are enqueued only for
	// included instructions, so every excluded-but-enqueued pc marks a
	// cold exit edge out of the region.
	include := make(map[int]bool)
	size, coldExits := 0, 0
	queue := []int{0}
	seen := map[int]bool{0: true}
	visit := func(pc int) {
		if pc < len(code) && !seen[pc] {
			seen[pc] = true
			queue = append(queue, pc)
		}
	}
	for len(queue) > 0 {
		pc := queue[0]
		queue = queue[1:]
		in := &code[pc]
		if !pure(in) {
			coldExits++
			continue
		}
		if in.IsReal() {
			if budget > 0 && size+1 > budget {
				coldExits++
				continue
			}
			size++
		}
		include[pc] = true
		switch in.Op {
		case ir.OpJump:
			visit(labels[in.Label])
		case ir.OpBr:
			visit(labels[in.Label])
			visit(pc + 1)
		case ir.OpRet:
		default:
			visit(pc + 1)
		}
	}

	if coldExits == 0 {
		return nil, "entry region covers every reachable path"
	}
	if size == 0 {
		return nil, "entry instruction is not re-executable"
	}
	hasRet := false
	for pc := range include {
		if code[pc].Op == ir.OpRet {
			hasRet = true
			break
		}
	}
	if !hasRet {
		return nil, "no return is reachable within the region budget"
	}

	// Confinement: a frame address may only feed loads and stores inside
	// the region. Any other use — stored as a value, returned, branched
	// on, folded into arithmetic — lets the address of a speculative slot
	// escape into state the fallback path could observe.
	isAddr := func(v ir.Value) bool {
		if v.Kind != ir.VKReg {
			return false
		}
		_, ok := addrDef[v.Reg]
		return ok
	}
	for pc := range include {
		in := &code[pc]
		switch in.Op {
		case ir.OpLoad:
			// in.A is the address operand: allowed.
		case ir.OpStore:
			if isAddr(in.B) {
				return nil, "a frame address escapes the entry region"
			}
		default:
			if isAddr(in.A) || isAddr(in.B) {
				return nil, "a frame address escapes the entry region"
			}
		}
		// Addresses used by the region must be materialized inside it;
		// an addrl hoisted outside would read as zero speculatively.
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			if in.A.Kind == ir.VKReg {
				if def, ok := addrDef[in.A.Reg]; ok && !include[def] {
					return nil, "a memory address is materialized outside the region"
				}
			}
		}
	}
	return &regionPlan{callee: callee, include: include, size: size}, ""
}

// splicePartialCall replaces the OpCall at idx with the callee's hot
// entry region followed by a guarded fallback: the region's returns
// deliver the value and jump past the fallback; every cold exit jumps to
// a fallback block holding a call to the original (unsplit) function.
// The fallback call keeps the site's CallID, so profiling the
// transformed module counts exactly the invocations that left the
// region.
func splicePartialCall(fn *ir.Func, idx int, rp *regionPlan) error {
	call := fn.Code[idx]
	callee := rp.callee
	if call.Op != ir.OpCall {
		return fmt.Errorf("instruction %d is %s, not a call", idx, call.Op)
	}
	if call.Sym != callee.Name {
		return fmt.Errorf("call targets %s, not %s", call.Sym, callee.Name)
	}
	if len(call.Args) < callee.NumParams {
		return fmt.Errorf("call has %d args, callee %s wants %d", len(call.Args), callee.Name, callee.NumParams)
	}

	labels := callee.LabelIndex()
	regBase := ir.Reg(fn.NumRegs)
	fn.NumRegs += callee.NumRegs
	slotMap := make([]int, len(callee.Slots))
	for i, s := range callee.Slots {
		slotMap[i] = fn.AddSlot(callee.Name+"."+s.Name, s.Size, s.Align, false)
	}
	labelMap := make(map[int]int)
	pcs := make([]int, 0, len(rp.include))
	for pc := range rp.include {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		if callee.Code[pc].Op == ir.OpLabel {
			labelMap[callee.Code[pc].Label] = fn.NewLabel()
		}
	}
	contLabel := fn.NewLabel()
	fallLabel := fn.NewLabel()

	mapVal := func(v ir.Value) ir.Value {
		if v.Kind == ir.VKReg {
			v.Reg += regBase
		}
		return v
	}

	var body []ir.Instr
	for i := 0; i < callee.NumParams; i++ {
		slot := fn.Slots[slotMap[i]]
		addrReg := fn.NewReg()
		body = append(body,
			ir.Instr{Op: ir.OpAddrL, Dst: addrReg, A: ir.C(int64(slotMap[i])), Pos: call.Pos},
			ir.Instr{Op: ir.OpStore, A: ir.R(addrReg), B: call.Args[i], Size: accessOf(slot.Size), Pos: call.Pos},
		)
	}
	// Emit the region in original instruction order (adjacency inside the
	// region is preserved, so fallthrough edges stay implicit); edges
	// leaving the region are rewritten to target the fallback block.
	for _, pc := range pcs {
		in := callee.Code[pc] // copy
		fallsThrough := true
		switch in.Op {
		case ir.OpLabel:
			in.Label = labelMap[in.Label]
		case ir.OpJump:
			if rp.include[labels[in.Label]] {
				in.Label = labelMap[in.Label]
			} else {
				in.Label = fallLabel
			}
			fallsThrough = false
		case ir.OpBr:
			in.A = mapVal(in.A)
			if rp.include[labels[in.Label]] {
				in.Label = labelMap[in.Label]
			} else {
				in.Label = fallLabel
			}
		case ir.OpAddrL:
			in.A = ir.C(int64(slotMap[in.A.Imm]))
		case ir.OpRet:
			// The hot path completed: deliver the value and skip the
			// fallback.
			if call.Dst != ir.NoReg {
				mv := ir.Instr{Op: ir.OpMov, Dst: call.Dst, Pos: in.Pos}
				if in.A.Kind == ir.VKNone {
					mv.A = ir.C(0)
				} else {
					mv.A = mapVal(in.A)
				}
				body = append(body, mv)
			}
			body = append(body, ir.Instr{Op: ir.OpJump, Label: contLabel, Pos: in.Pos})
			continue
		default:
			in.A = mapVal(in.A)
			in.B = mapVal(in.B)
		}
		if in.Dst != ir.NoReg {
			in.Dst += regBase
		}
		body = append(body, in)
		if fallsThrough && !rp.include[pc+1] {
			body = append(body, ir.Instr{Op: ir.OpJump, Label: fallLabel, Pos: in.Pos})
		}
	}
	// The fallback re-executes the original function; the speculative
	// region was side-effect-free, so re-execution from a fresh
	// activation is exact.
	fb := call
	fb.Args = append([]ir.Value(nil), call.Args...)
	body = append(body,
		ir.Instr{Op: ir.OpLabel, Label: fallLabel, Pos: call.Pos},
		fb,
		ir.Instr{Op: ir.OpLabel, Label: contLabel, Pos: call.Pos},
	)
	fn.Inlined = append(fn.Inlined, callee.Name)

	out := make([]ir.Instr, 0, len(fn.Code)-1+len(body))
	out = append(out, fn.Code[:idx]...)
	out = append(out, body...)
	out = append(out, fn.Code[idx+1:]...)
	fn.Code = out
	return nil
}
