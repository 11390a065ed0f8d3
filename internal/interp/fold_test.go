package interp

import (
	"reflect"
	"testing"

	"inlinec/internal/ir"
	"inlinec/internal/token"
)

// TestDeadConstNotFoldedAcrossLabel: a dead constant just before a label
// must stay out of the group after the label, or a branch to the label
// would count it. The front end never emits this shape today, so it is
// built by hand: main jumps over a dead constant to the label.
func TestDeadConstNotFoldedAcrossLabel(t *testing.T) {
	at := func(line int) token.Pos { return token.Pos{File: "h.c", Line: line, Col: 1} }
	mod := &ir.Module{Name: "h", Funcs: []*ir.Func{{
		Name: "main", NumRegs: 2, ReturnsValue: true, NextLabel: 1,
		Code: []ir.Instr{
			{Op: ir.OpConst, Dst: 0, A: ir.C(1), Pos: at(1)},
			{Op: ir.OpBr, A: ir.R(0), Label: 0, Pos: at(2)},
			{Op: ir.OpConst, Dst: 1, A: ir.C(5), Pos: at(3)},
			{Op: ir.OpLabel, Label: 0, Pos: at(4)},
			{Op: ir.OpRet, A: ir.C(0), Pos: at(5)},
		},
	}}}
	var stats []any
	for _, engine := range []string{EngineSwitch, EngineBytecode} {
		m, err := NewMachine(mod, NewEnv(), Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		stats = append(stats, *st)
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("engines disagree:\nswitch:   %+v\nbytecode: %+v", stats[0], stats[1])
	}
}
