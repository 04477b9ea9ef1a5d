package program

import (
	"testing"

	"weakorder/internal/mem"
)

func TestExecLocal(t *testing.T) {
	// r1=3 and r2=5 before every case; r0 is the destination.
	base := RegFile{1: 3, 2: 5}
	const pc = 4
	for _, c := range []struct {
		name   string
		in     Instr
		next   int
		halted bool
		r0     mem.Value
	}{
		{"nop", Instr{Op: OpNop}, pc + 1, false, 0},
		{"fence", Instr{Op: OpFence}, pc + 1, false, 0},
		{"li", Instr{Op: OpLoadImm, Rd: R0, Imm: 9}, pc + 1, false, 9},
		{"mov", Instr{Op: OpMov, Rd: R0, Rs: R2}, pc + 1, false, 5},
		{"add", Instr{Op: OpAdd, Rd: R0, Rs: R1, Rt: R2}, pc + 1, false, 8},
		{"addi", Instr{Op: OpAddImm, Rd: R0, Rs: R1, Imm: -1}, pc + 1, false, 2},
		{"sub", Instr{Op: OpSub, Rd: R0, Rs: R1, Rt: R2}, pc + 1, false, -2},
		{"beq reg taken", Instr{Op: OpBeq, Rs: R1, Rt: R1, Target: 9}, 9, false, 0},
		{"beq reg not taken", Instr{Op: OpBeq, Rs: R1, Rt: R2, Target: 9}, pc + 1, false, 0},
		{"beq imm taken", Instr{Op: OpBeq, Rs: R1, Rt: R2, Imm: 3, UseImm: true, Target: 9}, 9, false, 0},
		{"beq imm not taken", Instr{Op: OpBeq, Rs: R1, Rt: R1, Imm: 4, UseImm: true, Target: 9}, pc + 1, false, 0},
		{"bne reg taken", Instr{Op: OpBne, Rs: R1, Rt: R2, Target: 9}, 9, false, 0},
		{"bne reg not taken", Instr{Op: OpBne, Rs: R2, Rt: R2, Target: 9}, pc + 1, false, 0},
		{"bne imm taken", Instr{Op: OpBne, Rs: R1, Rt: R1, Imm: 4, UseImm: true, Target: 9}, 9, false, 0},
		{"bne imm not taken", Instr{Op: OpBne, Rs: R1, Rt: R2, Imm: 3, UseImm: true, Target: 9}, pc + 1, false, 0},
		{"blt reg taken", Instr{Op: OpBlt, Rs: R1, Rt: R2, Target: 9}, 9, false, 0},
		{"blt reg not taken", Instr{Op: OpBlt, Rs: R2, Rt: R1, Target: 9}, pc + 1, false, 0},
		{"blt imm taken", Instr{Op: OpBlt, Rs: R1, Rt: R1, Imm: 4, UseImm: true, Target: 9}, 9, false, 0},
		{"blt imm not taken", Instr{Op: OpBlt, Rs: R1, Rt: R2, Imm: 3, UseImm: true, Target: 9}, pc + 1, false, 0},
		{"bge reg taken", Instr{Op: OpBge, Rs: R1, Rt: R1, Target: 9}, 9, false, 0},
		{"bge reg not taken", Instr{Op: OpBge, Rs: R1, Rt: R2, Target: 9}, pc + 1, false, 0},
		{"bge imm taken", Instr{Op: OpBge, Rs: R2, Rt: R1, Imm: 5, UseImm: true, Target: 9}, 9, false, 0},
		{"bge imm not taken", Instr{Op: OpBge, Rs: R1, Rt: R1, Imm: 4, UseImm: true, Target: 9}, pc + 1, false, 0},
		{"jmp", Instr{Op: OpJmp, Target: 0}, 0, false, 0},
		{"halt", Instr{Op: OpHalt}, pc, true, 0},
	} {
		regs := base
		next, halted := ExecLocal(&regs, c.in, pc)
		if next != c.next || halted != c.halted {
			t.Errorf("%s: ExecLocal = (%d, %v), want (%d, %v)", c.name, next, halted, c.next, c.halted)
		}
		want := base
		want[R0] = c.r0
		if regs != want {
			t.Errorf("%s: registers = %v, want %v", c.name, regs, want)
		}
	}
}

func TestExecLocalPanicsOnMemoryOpcode(t *testing.T) {
	for _, op := range []Opcode{OpLoad, OpStore, OpSyncLoad, OpSyncStore, OpTAS, OpSwap} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExecLocal(%v) did not panic", op)
				}
			}()
			var regs RegFile
			ExecLocal(&regs, Instr{Op: op}, 0)
		}()
	}
}

func TestStoreValue(t *testing.T) {
	regs := RegFile{3: 7, 5: 11}
	for _, c := range []struct {
		in   Instr
		want mem.Value
	}{
		{Instr{Op: OpStore, Rs: R3, Rt: R5}, 7},
		{Instr{Op: OpStore, Rs: R3, Imm: 2, UseImm: true}, 2},
		{Instr{Op: OpSyncStore, Rs: R3, Rt: R5}, 7},
		{Instr{Op: OpSyncStore, Imm: 0, UseImm: true}, 0},
		{Instr{Op: OpSwap, Rd: R3, Rs: R3}, 7},
		{Instr{Op: OpSwap, Rs: R3, Imm: 4, UseImm: true}, 4},
		{Instr{Op: OpTAS, Rs: R3, Imm: 4, UseImm: true}, 1},
	} {
		if got := StoreValue(c.in, &regs); got != c.want {
			t.Errorf("StoreValue(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
