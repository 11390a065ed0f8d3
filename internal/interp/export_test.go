package interp

import "inlinec/internal/ir"

// DispatchGroup is one translated bytecode instruction as the dispatch
// census sees it: its opcode (named by DispatchOpName) and the number of
// IR instructions it retires.
type DispatchGroup struct {
	Op int
	N  int
}

// NumDispatchOps bounds DispatchGroup.Op.
const NumDispatchOps = len(bcOpNames)

// DispatchOpName names a DispatchGroup.Op.
func DispatchOpName(op int) string { return bcOp(op).String() }

// DispatchGroups maps each function of a bytecode machine to a table
// indexed by IR pc: the group that starts there, or the zero
// DispatchGroup where none does. It reads the translated (origPC, n)
// tables, so the dispatch loop carries no census counter.
func DispatchGroups(m *Machine) map[*ir.Func][]DispatchGroup {
	out := make(map[*ir.Func][]DispatchGroup, len(m.bfuncs))
	for _, bf := range m.bfuncs {
		t := make([]DispatchGroup, len(bf.fn.Code))
		for i, in := range bf.code {
			if in.n > 0 {
				t[bf.origPC[i]] = DispatchGroup{Op: int(in.op), N: int(in.n)}
			}
		}
		out[bf.fn] = t
	}
	return out
}
