package program

import (
	"fmt"

	"weakorder/internal/mem"
)

// MaxLocalSteps bounds the register-only instructions an interpreter
// runs before it gives up on a thread as stuck in a local infinite loop.
// Every executor of the instruction set (the idealized interpreter, the
// simulated processor and the appears-SC replay) uses this one budget.
const MaxLocalSteps = 10_000

// ExecLocal executes the register-only instruction in, found at index pc
// of its thread, against regs. It returns the index of the next
// instruction and whether the thread halted; on halt next is pc. Fences
// are no-ops here: the memory ordering they impose is the executor's
// business. ExecLocal is the single definition of the instruction set's
// local semantics; it panics on a memory opcode.
func ExecLocal(regs *RegFile, in Instr, pc int) (next int, halted bool) {
	switch in.Op {
	case OpNop, OpFence:
	case OpLoadImm:
		regs[in.Rd] = in.Imm
	case OpMov:
		regs[in.Rd] = regs[in.Rs]
	case OpAdd:
		regs[in.Rd] = regs[in.Rs] + regs[in.Rt]
	case OpAddImm:
		regs[in.Rd] = regs[in.Rs] + in.Imm
	case OpSub:
		regs[in.Rd] = regs[in.Rs] - regs[in.Rt]
	case OpBeq, OpBne, OpBlt, OpBge:
		a, b := regs[in.Rs], in.Imm
		if !in.UseImm {
			b = regs[in.Rt]
		}
		var taken bool
		switch in.Op {
		case OpBeq:
			taken = a == b
		case OpBne:
			taken = a != b
		case OpBlt:
			taken = a < b
		default:
			taken = a >= b
		}
		if taken {
			return in.Target, false
		}
	case OpJmp:
		return in.Target, false
	case OpHalt:
		return pc, true
	default:
		panic(fmt.Sprintf("program: opcode %v is not a local instruction", in.Op))
	}
	return pc + 1, false
}

// StoreValue returns the value the memory instruction in writes, given
// the registers before it executes: 1 for a TestAndSet, otherwise Imm
// when UseImm and Rs when not. It is meaningful only for opcodes whose
// kind writes memory.
func StoreValue(in Instr, regs *RegFile) mem.Value {
	switch {
	case in.Op == OpTAS:
		return 1
	case in.UseImm:
		return in.Imm
	default:
		return regs[in.Rs]
	}
}
