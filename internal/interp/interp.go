package interp

import (
	"fmt"

	"inlinec/internal/ir"
	"inlinec/internal/obs"
	"inlinec/internal/profile"
	"inlinec/internal/token"
)

// RuntimeError is an execution fault with the faulting location.
type RuntimeError struct {
	Func string
	Pos  token.Pos
	Msg  string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("runtime error in %s at %s: %s", e.Func, e.Pos, e.Msg)
	}
	return fmt.Sprintf("runtime error in %s: %s", e.Func, e.Msg)
}

// The available execution engines. EngineBytecode translates each
// function into dense pre-decoded bytecode at load time and dispatches
// over it (see bytecode.go); EngineSwitch interprets ir.Instr directly
// and is kept as the differential-testing oracle. Both produce
// bit-identical RunStats for every program.
const (
	EngineBytecode = "bytecode"
	EngineSwitch   = "switch"
)

// Options configures a Machine.
type Options struct {
	// StackSize bounds the control stack in bytes (0 = DefaultStackSize).
	StackSize int
	// HeapSize bounds the heap in bytes (0 = DefaultHeapSize).
	HeapSize int
	// MaxIL aborts the run after this many executed instructions
	// (0 = 2^40, effectively unlimited for benchmarks).
	MaxIL int64
	// Trace, when non-nil, is invoked for every executed instruction
	// (labels excepted) with the containing function and instruction
	// index. Used by the instruction-cache simulator. A traced machine
	// runs on EngineSwitch whatever Engine says: the bytecode engine
	// retires several instructions per dispatch and skips dead register
	// writes, so only the switch engine sees each instruction.
	Trace func(f *ir.Func, pc int)
	// Obs, when non-nil, receives aggregate execution counters when a
	// run completes. Recording happens once per run (a handful of atomic
	// adds), never inside the dispatch loop, so the fast path is
	// untouched.
	Obs *obs.Registry
	// Engine selects the execution engine: EngineBytecode (the default
	// when empty) or EngineSwitch.
	Engine string
}

// compiledFunc caches per-function interpretation tables. All name and
// label resolution happens once at load time so that the dispatch loop
// never consults a map: branch targets become pc indices, and static
// call sites become direct callee pointers.
type compiledFunc struct {
	fn *ir.Func
	id int // function table index; address = FuncBase + id*FuncStride
	// branchPC[pc] is the resolved jump target for an OpJump/OpBr at pc.
	branchPC []int32
	// callees[pc] is the resolved callee for an OpCall at pc.
	callees []callTarget
	// reads[r] counts the instructions reading register r, saturated at
	// 2 (bytecode engine only): translation folds constants nothing
	// reads and fuses compares read once.
	reads []uint8
}

// callTarget is a load-time-resolved static callee: either a user
// function (user != nil) or an external implementation.
type callTarget struct {
	user *compiledFunc
	ext  ExternImpl
	id   int // dense function id (extern ids follow user function ids)
}

// externTarget describes one extern for pointer-call resolution.
type externTarget struct {
	name string
	impl ExternImpl
	id   int
}

// Machine executes one IL module against an Env, producing RunStats.
// A Machine is not safe for concurrent use; run one Machine per
// goroutine. A single Machine may Run many times — memory, frames, and
// counters are reset between runs — so profiling reuses one Machine per
// worker instead of rebuilding tables and arenas per run.
type Machine struct {
	Mod *ir.Module
	Env *Env

	mem        *Memory
	funcs      map[string]*compiledFunc
	byAddr     map[int64]*compiledFunc
	extByAddr  map[int64]*externTarget
	addrByName map[string]int64

	// engine is the resolved Options.Engine (EngineSwitch for a traced
	// machine); the bytecode tables below are populated only for
	// EngineBytecode.
	engine     string
	bfuncs     map[string]*bcFunc
	ptrTargets []ptrTarget

	// funcNames maps a dense function id (user functions first, then
	// externs) to its name; funcCounts and siteCounts are the per-run
	// dense counters folded into RunStats at Run exit.
	funcNames  []string
	funcCounts []int64
	siteCounts []int64

	// Per-target counters for pointer call sites: ptrSiteIdx maps a
	// call-site id to a compact pointer-site index (-1 for direct sites),
	// ptrSiteIDs is the reverse map, and ptrTargetCounts is the flat
	// [site index][dense function id] histogram that devirtualization
	// reads its dominance fractions from.
	ptrSiteIdx      []int32
	ptrSiteIDs      []int32
	ptrTargetCounts []int64
	ptrStride       int

	// frames/bframes are the pooled activation-record stacks, reused
	// across calls and runs so the hot loop performs no per-call
	// allocation.
	frames  []frame
	bframes []bcFrame
	argBuf  []int64

	// fmtBuf and pieceBuf are the pooled printf formatting buffers.
	fmtBuf   []byte
	pieceBuf []byte

	opts Options
}

// NewMachine loads the module. The same machine may Run multiple times
// with fresh environments (SetEnv): each Run after the first resets the
// memory it already holds (Memory.Reset) instead of re-creating it.
func NewMachine(mod *ir.Module, env *Env, opts Options) (*Machine, error) {
	if opts.StackSize == 0 {
		opts.StackSize = DefaultStackSize
	}
	if opts.HeapSize == 0 {
		opts.HeapSize = DefaultHeapSize
	}
	if opts.MaxIL == 0 {
		opts.MaxIL = 1 << 40
	}
	engine := opts.Engine
	switch engine {
	case "":
		engine = EngineBytecode
	case EngineBytecode, EngineSwitch:
	default:
		return nil, fmt.Errorf("unknown interpreter engine %q (want %q or %q)",
			opts.Engine, EngineBytecode, EngineSwitch)
	}
	if opts.Trace != nil {
		engine = EngineSwitch
	}
	m := &Machine{
		Mod:        mod,
		Env:        env,
		funcs:      make(map[string]*compiledFunc, len(mod.Funcs)),
		byAddr:     make(map[int64]*compiledFunc, len(mod.Funcs)),
		extByAddr:  make(map[int64]*externTarget, len(mod.Externs)),
		addrByName: make(map[string]int64, len(mod.Funcs)+len(mod.Externs)),
		engine:     engine,
		opts:       opts,
	}
	id := 0
	cfs := make([]*compiledFunc, 0, len(mod.Funcs))
	for _, f := range mod.Funcs {
		cf := &compiledFunc{fn: f, id: id}
		m.funcs[f.Name] = cf
		m.byAddr[FuncBase+int64(id)*FuncStride] = cf
		m.addrByName[f.Name] = FuncBase + int64(id)*FuncStride
		m.funcNames = append(m.funcNames, f.Name)
		cfs = append(cfs, cf)
		id++
	}
	for _, e := range mod.Externs {
		impl, ok := Externs[e.Name]
		if !ok {
			return nil, fmt.Errorf("extern function %q has no implementation", e.Name)
		}
		addr := FuncBase + int64(id)*FuncStride
		m.extByAddr[addr] = &externTarget{name: e.Name, impl: impl, id: id}
		if _, shadowed := m.addrByName[e.Name]; !shadowed {
			m.addrByName[e.Name] = addr
		}
		m.funcNames = append(m.funcNames, e.Name)
		id++
	}
	m.funcCounts = make([]int64, id)

	// Second pass: with every function known, resolve branch labels to pc
	// indices and call symbols to callee pointers, size the dense
	// call-site counter table from the largest static site id, and for
	// the bytecode engine count register reads, all functions' counts
	// in one buffer.
	var reads []uint8
	if engine == EngineBytecode {
		n := 0
		for _, f := range mod.Funcs {
			n += f.NumRegs
		}
		reads = make([]uint8, n)
	}
	maxCallID := 0
	extraExterns := make(map[string]int)
	for _, cf := range cfs {
		code := cf.fn.Code
		labels := cf.fn.LabelIndex()
		cf.branchPC = make([]int32, len(code))
		cf.callees = make([]callTarget, len(code))
		if reads != nil {
			cf.reads, reads = reads[:cf.fn.NumRegs:cf.fn.NumRegs], reads[cf.fn.NumRegs:]
		}
		for pc := range code {
			in := &code[pc]
			if cf.reads != nil {
				countRead(cf.reads, in.A)
				countRead(cf.reads, in.B)
				for _, a := range in.Args {
					countRead(cf.reads, a)
				}
			}
			switch in.Op {
			case ir.OpJump, ir.OpBr:
				cf.branchPC[pc] = int32(labels[in.Label])
			case ir.OpCall:
				if callee, isUser := m.funcs[in.Sym]; isUser {
					cf.callees[pc] = callTarget{user: callee}
				} else if addr, declared := m.addrByName[in.Sym]; declared {
					et := m.extByAddr[addr]
					cf.callees[pc] = callTarget{ext: et.impl, id: et.id}
				} else if impl, known := Externs[in.Sym]; known {
					// Called but never declared: resolvable by name only —
					// it gets a dense counter slot but no runtime address,
					// matching the map-based resolution this replaces.
					if slot, seen := extraExterns[in.Sym]; seen {
						cf.callees[pc] = callTarget{ext: impl, id: slot}
					} else {
						m.funcNames = append(m.funcNames, in.Sym)
						m.funcCounts = append(m.funcCounts, 0)
						extraExterns[in.Sym] = id
						cf.callees[pc] = callTarget{ext: impl, id: id}
						id++
					}
				}
			}
			if (in.Op == ir.OpCall || in.Op == ir.OpCallPtr) && in.CallID > maxCallID {
				maxCallID = in.CallID
			}
		}
	}
	m.siteCounts = make([]int64, maxCallID+1)

	m.ptrSiteIdx = make([]int32, maxCallID+1)
	for i := range m.ptrSiteIdx {
		m.ptrSiteIdx[i] = -1
	}
	for _, cf := range cfs {
		for pc := range cf.fn.Code {
			in := &cf.fn.Code[pc]
			if in.Op == ir.OpCallPtr && m.ptrSiteIdx[in.CallID] < 0 {
				m.ptrSiteIdx[in.CallID] = int32(len(m.ptrSiteIDs))
				m.ptrSiteIDs = append(m.ptrSiteIDs, int32(in.CallID))
			}
		}
	}
	m.ptrStride = len(m.funcCounts)
	m.ptrTargetCounts = make([]int64, len(m.ptrSiteIDs)*m.ptrStride)

	if engine == EngineBytecode {
		m.translate(cfs)
	}
	return m, nil
}

// countRead counts one read of v in reads when v is a register,
// saturating at 2.
func countRead(reads []uint8, v ir.Value) {
	if v.Kind == ir.VKReg && reads[v.Reg] < 2 {
		reads[v.Reg]++
	}
}

// Engine reports which execution engine the machine resolved to.
func (m *Machine) Engine() string { return m.engine }

// SetEnv installs a fresh environment for the next Run, letting one
// machine serve many runs without re-translating the module.
func (m *Machine) SetEnv(env *Env) { m.Env = env }

// FuncAddr returns the runtime address of a function (defined or extern),
// via the name table precomputed at load time.
func (m *Machine) FuncAddr(name string) (int64, bool) {
	a, ok := m.addrByName[name]
	return a, ok
}

// Run executes main() and returns the collected statistics. A program
// calling exit() terminates normally with that exit code.
func (m *Machine) Run() (*profile.RunStats, error) {
	st := profile.NewRunStats()
	if err := m.RunInto(st); err != nil {
		return st, err
	}
	return st, nil
}

// RunInto is Run writing into a caller-owned RunStats, which it resets
// first. Reusing the stats (its maps keep their buckets) lets steady-
// state benchmark loops run without a single allocation.
func (m *Machine) RunInto(st *profile.RunStats) error {
	*st = profile.RunStats{SiteCounts: st.SiteCounts, FuncCounts: st.FuncCounts, PtrTargets: st.PtrTargets}
	clear(st.SiteCounts)
	clear(st.FuncCounts)
	for _, targets := range st.PtrTargets {
		clear(targets)
	}

	mainFn, ok := m.funcs["main"]
	if !ok {
		return fmt.Errorf("module %s has no main function", m.Mod.Name)
	}
	if m.mem == nil {
		mem, err := NewMemory(m.Mod, m.opts.StackSize, m.opts.HeapSize, m.FuncAddr)
		if err != nil {
			return err
		}
		m.mem = mem
	} else {
		m.mem.Reset()
	}
	for i := range m.funcCounts {
		m.funcCounts[i] = 0
	}
	for i := range m.siteCounts {
		m.siteCounts[i] = 0
	}
	for i := range m.ptrTargetCounts {
		m.ptrTargetCounts[i] = 0
	}

	var code int64
	var err error
	if m.engine == EngineBytecode {
		code, err = m.execBC(m.bfuncs[mainFn.fn.Name], nil, st)
	} else {
		code, err = m.exec(mainFn, nil, st)
	}
	m.foldCounts(st)
	defer m.recordRun(st)
	// A clean run unwinds every activation: one return per counted call,
	// plus main's own ret (its invocation is not a counted call site).
	// Anything else — exit() or a fault with frames still pending — is a
	// truncated run, flagged so merged profiles can report how many went
	// into the averages.
	if st.Returns != st.Calls+1 {
		st.Truncated = 1
	}
	if err != nil {
		if ex, isExit := err.(*exitError); isExit {
			st.ExitCode = ex.code
			return nil
		}
		return err
	}
	st.ExitCode = code
	return nil
}

// recordRun publishes one run's aggregate counters to the attached
// registry (no-op without one).
func (m *Machine) recordRun(st *profile.RunStats) {
	reg := m.opts.Obs
	if reg == nil {
		return
	}
	reg.Counter("interp_runs_total", "Interpreter runs completed.").Inc()
	reg.Counter("interp_engine_runs_total", "Interpreter runs completed, by engine.",
		"engine", m.engine).Inc()
	reg.Counter("interp_il_executed_total", "Executed IL instructions.").Add(st.IL)
	reg.Counter("interp_calls_total", "Dynamic calls executed.").Add(st.Calls)
	reg.Counter("interp_extern_calls_total", "Dynamic calls to external routines.").Add(st.ExternCalls)
	reg.Counter("interp_ptr_calls_total", "Dynamic calls through pointers.").Add(st.PtrCalls)
	reg.Counter("interp_truncated_runs_total", "Runs ended by exit() without unwinding.").Add(st.Truncated)
	reg.Gauge("interp_max_stack_bytes", "High-water control-stack bytes across runs.").SetMax(float64(st.MaxStack))
}

// foldCounts folds the dense per-run counters back into the map-shaped
// RunStats the profile package exposes.
func (m *Machine) foldCounts(st *profile.RunStats) {
	for id, n := range m.funcCounts {
		if n != 0 {
			st.FuncCounts[m.funcNames[id]] += n
		}
	}
	for sid, n := range m.siteCounts {
		if n != 0 {
			st.SiteCounts[sid] += n
		}
	}
	for pi, sid := range m.ptrSiteIDs {
		row := m.ptrTargetCounts[pi*m.ptrStride : (pi+1)*m.ptrStride]
		for tid, n := range row {
			if n != 0 {
				st.AddPtrTarget(int(sid), m.funcNames[tid], n)
			}
		}
	}
}

// bumpPtrTarget counts one resolved target at a pointer call site.
func (m *Machine) bumpPtrTarget(site, tid int) {
	if pi := m.ptrSiteIdx[site]; pi >= 0 {
		m.ptrTargetCounts[int(pi)*m.ptrStride+tid]++
	}
}

// frame is one activation record. Frames live in the machine's pooled
// stack; regs slices are recycled between activations at the same depth.
type frame struct {
	cf     *compiledFunc
	base   int64 // address of the frame in the stack segment
	regs   []int64
	pc     int
	retDst ir.Reg // caller register receiving the return value
}

// val resolves an operand against the frame's register file.
func (f *frame) val(v ir.Value) int64 {
	if v.Kind == ir.VKConst {
		return v.Imm
	}
	return f.regs[v.Reg]
}

// push activates cf at depth, reusing pooled frame storage. It returns
// the new top-of-stack frame.
func (m *Machine) push(depth int, cf *compiledFunc, callArgs []int64, retDst ir.Reg, sp *int64, st *profile.RunStats) (*frame, error) {
	base := (*sp + 15) &^ 15
	end := base + int64(cf.fn.FrameSize)
	if end > int64(m.mem.StackSize()) {
		return nil, fmt.Errorf("control stack overflow entering %s (frame %d bytes, used %d of %d)",
			cf.fn.Name, cf.fn.FrameSize, base, m.mem.StackSize())
	}
	if depth == len(m.frames) {
		m.frames = append(m.frames, frame{})
	}
	f := &m.frames[depth]
	f.cf = cf
	f.base = StackBase + base
	f.pc = 0
	f.retDst = retDst
	if cap(f.regs) >= cf.fn.NumRegs {
		f.regs = f.regs[:cf.fn.NumRegs]
		for i := range f.regs {
			f.regs[i] = 0
		}
	} else {
		f.regs = make([]int64, cf.fn.NumRegs)
	}
	// Zero the frame (locals start zeroed for determinism) and store
	// incoming arguments into the parameter slots.
	m.mem.stack.grow(end)
	clear(m.mem.stack.b[base:end])
	for i := 0; i < cf.fn.NumParams && i < len(callArgs); i++ {
		slot := cf.fn.Slots[i]
		if err := m.mem.Store(f.base+int64(slot.Offset), sizeToAccess(slot.Size), callArgs[i]); err != nil {
			return nil, err
		}
	}
	*sp = end
	if *sp > st.MaxStack {
		st.MaxStack = *sp
	}
	m.funcCounts[cf.id]++
	return f, nil
}

// exec runs entry(args) to completion using an explicit frame stack so
// that deep MiniC recursion cannot exhaust the Go stack.
func (m *Machine) exec(entry *compiledFunc, args []int64, st *profile.RunStats) (int64, error) {
	var sp int64 // stack-segment high-water offset
	depth := 0

	f, err := m.push(depth, entry, args, ir.NoReg, &sp, st)
	if err != nil {
		return 0, err
	}
	depth++

	maxIL := m.opts.MaxIL
	trace := m.opts.Trace

	var retVal int64
	for depth > 0 {
		code := f.cf.fn.Code
		if f.pc >= len(code) {
			return 0, &RuntimeError{Func: f.cf.fn.Name, Msg: "fell off the end of the function"}
		}
		in := &code[f.pc]

		if in.Op != ir.OpLabel {
			st.IL++
			if st.IL > maxIL {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos,
					Msg: fmt.Sprintf("instruction budget exceeded (%d)", maxIL)}
			}
			if trace != nil {
				trace(f.cf.fn, f.pc)
			}
		}

		switch in.Op {
		case ir.OpLabel, ir.OpNop:
			f.pc++
		case ir.OpConst:
			f.regs[in.Dst] = in.A.Imm
			f.pc++
		case ir.OpMov:
			f.regs[in.Dst] = f.val(in.A)
			f.pc++
		case ir.OpNeg:
			f.regs[in.Dst] = -f.val(in.A)
			f.pc++
		case ir.OpNot:
			f.regs[in.Dst] = ^f.val(in.A)
			f.pc++
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			a, b := f.val(in.A), f.val(in.B)
			if (in.Op == ir.OpDiv || in.Op == ir.OpRem) && b == 0 {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: "division by zero"}
			}
			f.regs[in.Dst] = evalBinary(in.Op, a, b)
			f.pc++
		case ir.OpLoad:
			v, err := m.mem.Load(f.val(in.A), in.Size)
			if err != nil {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
			}
			f.regs[in.Dst] = v
			f.pc++
		case ir.OpStore:
			if err := m.mem.Store(f.val(in.A), in.Size, f.val(in.B)); err != nil {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
			}
			f.pc++
		case ir.OpAddrG:
			a, ok := m.mem.GlobalAddr(in.Sym)
			if !ok {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: "unknown global " + in.Sym}
			}
			f.regs[in.Dst] = a
			f.pc++
		case ir.OpAddrL:
			slot := f.cf.fn.Slots[in.A.Imm]
			f.regs[in.Dst] = f.base + int64(slot.Offset)
			f.pc++
		case ir.OpAddrF:
			a, ok := m.addrByName[in.Sym]
			if !ok {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: "unknown function " + in.Sym}
			}
			f.regs[in.Dst] = a
			f.pc++
		case ir.OpJump:
			st.Control++
			f.pc = int(f.cf.branchPC[f.pc])
		case ir.OpBr:
			st.Control++
			if f.val(in.A) != 0 {
				f.pc = int(f.cf.branchPC[f.pc])
			} else {
				f.pc++
			}
		case ir.OpCall:
			st.Calls++
			m.siteCounts[in.CallID]++
			callArgs := m.scratchArgs(len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = f.val(a)
			}
			ct := &f.cf.callees[f.pc]
			if ct.user != nil {
				f.pc++ // resume after the call on return
				nf, err := m.push(depth, ct.user, callArgs, in.Dst, &sp, st)
				if err != nil {
					return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
				}
				f = nf
				depth++
				continue
			}
			// External function.
			if ct.ext == nil {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: "unimplemented extern " + in.Sym}
			}
			st.ExternCalls++
			m.funcCounts[ct.id]++
			rv, err := ct.ext(m, callArgs)
			if err != nil {
				if _, isExit := err.(*exitError); isExit {
					return 0, err
				}
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
			}
			st.Returns++
			if in.Dst != ir.NoReg {
				f.regs[in.Dst] = rv
			}
			f.pc++
		case ir.OpCallPtr:
			st.Calls++
			st.PtrCalls++
			m.siteCounts[in.CallID]++
			target := f.val(in.A)
			callArgs := m.scratchArgs(len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = f.val(a)
			}
			if callee, isUser := m.byAddr[target]; isUser {
				f.pc++
				nf, err := m.push(depth, callee, callArgs, in.Dst, &sp, st)
				if err != nil {
					return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
				}
				m.bumpPtrTarget(in.CallID, callee.id)
				f = nf
				depth++
				continue
			}
			if et, isExt := m.extByAddr[target]; isExt {
				st.ExternCalls++
				m.funcCounts[et.id]++
				m.bumpPtrTarget(in.CallID, et.id)
				rv, err := et.impl(m, callArgs)
				if err != nil {
					if _, isExit := err.(*exitError); isExit {
						return 0, err
					}
					return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
				}
				st.Returns++
				if in.Dst != ir.NoReg {
					f.regs[in.Dst] = rv
				}
				f.pc++
				continue
			}
			return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos,
				Msg: fmt.Sprintf("call through invalid function pointer %#x", target)}
		case ir.OpRet:
			st.Returns++
			if in.A.Kind != ir.VKNone {
				retVal = f.val(in.A)
			} else {
				retVal = 0
			}
			// Pop the frame and deliver the value.
			depth--
			sp = 0
			if depth > 0 {
				retDst := f.retDst
				f = &m.frames[depth-1]
				sp = f.base - StackBase + int64(f.cf.fn.FrameSize)
				if retDst != ir.NoReg {
					f.regs[retDst] = retVal
				}
			}
		default:
			return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos,
				Msg: fmt.Sprintf("unhandled opcode %s", in.Op)}
		}
	}
	return retVal, nil
}

// scratchArgs returns the reused argument buffer, grown to n. Arguments
// are consumed before the next call evaluates its own (push stores them
// into parameter slots; externs only read during the call), so a single
// buffer serves every call site.
func (m *Machine) scratchArgs(n int) []int64 {
	if cap(m.argBuf) < n {
		m.argBuf = make([]int64, n, n+8)
	}
	return m.argBuf[:n]
}

func sizeToAccess(slotSize int) int {
	if slotSize == 1 {
		return 1
	}
	return 8
}

func evalBinary(op ir.Op, a, b int64) int64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpDiv:
		return a / b
	case ir.OpRem:
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << uint64(b&63)
	case ir.OpShr:
		return int64(uint64(a) >> uint64(b&63))
	case ir.OpEq:
		return b2i(a == b)
	case ir.OpNe:
		return b2i(a != b)
	case ir.OpLt:
		return b2i(a < b)
	case ir.OpLe:
		return b2i(a <= b)
	case ir.OpGt:
		return b2i(a > b)
	case ir.OpGe:
		return b2i(a >= b)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
