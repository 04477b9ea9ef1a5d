// Package program defines the intermediate representation for the small
// parallel programs that run on both the idealized architecture and the
// hardware simulator: a handful of integer registers per thread, loads,
// stores, arithmetic, conditional branches, and the hardware-recognizable
// synchronization operations that DRF0 requires (Test, Set/Unset,
// TestAndSet and general atomic swaps).
//
// Programs are built either with the fluent ThreadBuilder API in this
// package or parsed from the litmus text format in package lang.
package program

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"weakorder/internal/mem"
)

// Reg names one of a thread's general-purpose registers.
type Reg uint8

// NumRegs is the number of general-purpose registers per thread.
const NumRegs = 16

// Convenient register names.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// String formats the register like "r3".
func (r Reg) String() string { return string(r.append(nil)) }

func (r Reg) append(dst []byte) []byte { return strconv.AppendUint(append(dst, 'r'), uint64(r), 10) }

// Opcode enumerates the instruction set.
type Opcode uint8

// Instruction opcodes. Memory opcodes map one-to-one onto mem.Kind:
// OpLoad -> Read, OpStore -> Write, OpSyncLoad -> SyncRead,
// OpSyncStore -> SyncWrite, OpTAS/OpSwap -> SyncRMW.
const (
	// OpNop does nothing.
	OpNop Opcode = iota
	// OpLoadImm sets Rd to Imm.
	OpLoadImm
	// OpMov copies Rs into Rd.
	OpMov
	// OpAdd sets Rd to Rs + Rt.
	OpAdd
	// OpAddImm sets Rd to Rs + Imm.
	OpAddImm
	// OpSub sets Rd to Rs - Rt.
	OpSub
	// OpLoad performs a data read of Addr into Rd.
	OpLoad
	// OpStore performs a data write of Rs (or Imm when UseImm) to Addr.
	OpStore
	// OpSyncLoad performs a read-only synchronization operation (Test),
	// reading Addr into Rd.
	OpSyncLoad
	// OpSyncStore performs a write-only synchronization operation
	// (Set/Unset), writing Rs (or Imm when UseImm) to Addr.
	OpSyncStore
	// OpTAS performs a TestAndSet: atomically reads Addr into Rd and
	// writes 1.
	OpTAS
	// OpSwap performs a general atomic read-modify-write: atomically reads
	// Addr into Rd and writes Rs (or Imm when UseImm).
	OpSwap
	// OpBeq branches to Target when Rs == Rt (or Rs == Imm when UseImm).
	OpBeq
	// OpBne branches to Target when Rs != Rt (or Rs != Imm when UseImm).
	OpBne
	// OpBlt branches to Target when Rs < Rt (or Rs < Imm when UseImm).
	OpBlt
	// OpBge branches to Target when Rs >= Rt (or Rs >= Imm when UseImm).
	OpBge
	// OpJmp branches unconditionally to Target.
	OpJmp
	// OpHalt terminates the thread.
	OpHalt
	// OpFence is an RP3-style fence: the processor waits until all its
	// previous accesses are globally performed before proceeding. It is
	// not a memory operation (it accesses no location) and does not
	// participate in DRF0's synchronization order; it constrains only the
	// issuing processor's hardware. On the idealized architecture it is a
	// no-op.
	OpFence
)

// Slot is one operand position in an instruction's written form.
type Slot uint8

// Operand slots, named as the litmus syntax writes them.
const (
	SlotRd    Slot = iota // rD: Rd
	SlotRs                // rS: Rs
	SlotRt                // rT: Rt
	SlotImm               // #imm: Imm
	SlotVar               // var: the memory location Addr
	SlotRsImm             // rS|#imm: Imm when UseImm, else Rs
	SlotRtImm             // rT|#imm: Imm when UseImm, else Rt
	SlotLabel             // label: the branch Target
)

var slotNames = [...]string{"rD", "rS", "rT", "#imm", "var", "rS|#imm", "rT|#imm", "label"}

// String returns the slot's written shape, such as "rS|#imm".
func (s Slot) String() string { return slotNames[s] }

// Syntax is an opcode's written form: its mnemonic and its operand
// slots in order.
type Syntax struct {
	Mnemonic string
	Slots    []Slot
}

// syntaxes is the instruction set's one written form. The disassembler,
// the litmus formatter and the litmus parser all walk it.
var syntaxes = [...]Syntax{
	OpNop:       {"nop", nil},
	OpLoadImm:   {"li", []Slot{SlotRd, SlotImm}},
	OpMov:       {"mov", []Slot{SlotRd, SlotRs}},
	OpAdd:       {"add", []Slot{SlotRd, SlotRs, SlotRt}},
	OpAddImm:    {"addi", []Slot{SlotRd, SlotRs, SlotImm}},
	OpSub:       {"sub", []Slot{SlotRd, SlotRs, SlotRt}},
	OpLoad:      {"ld", []Slot{SlotRd, SlotVar}},
	OpStore:     {"st", []Slot{SlotVar, SlotRsImm}},
	OpSyncLoad:  {"sld", []Slot{SlotRd, SlotVar}},
	OpSyncStore: {"sst", []Slot{SlotVar, SlotRsImm}},
	OpTAS:       {"tas", []Slot{SlotRd, SlotVar}},
	OpSwap:      {"swap", []Slot{SlotRd, SlotVar, SlotRsImm}},
	OpBeq:       {"beq", []Slot{SlotRs, SlotRtImm, SlotLabel}},
	OpBne:       {"bne", []Slot{SlotRs, SlotRtImm, SlotLabel}},
	OpBlt:       {"blt", []Slot{SlotRs, SlotRtImm, SlotLabel}},
	OpBge:       {"bge", []Slot{SlotRs, SlotRtImm, SlotLabel}},
	OpJmp:       {"jmp", []Slot{SlotLabel}},
	OpHalt:      {"halt", nil},
	OpFence:     {"fence", nil},
}

var byMnemonic = func() map[string]Opcode {
	m := make(map[string]Opcode, len(syntaxes))
	for o, s := range syntaxes {
		m[s.Mnemonic] = Opcode(o)
	}
	return m
}()

// Syntax returns the opcode's written form; ok is false for an unknown
// opcode.
func (o Opcode) Syntax() (s Syntax, ok bool) {
	if int(o) < len(syntaxes) {
		return syntaxes[o], true
	}
	return Syntax{}, false
}

// OpcodeNamed returns the opcode written as mnemonic.
func OpcodeNamed(mnemonic string) (Opcode, bool) {
	o, ok := byMnemonic[mnemonic]
	return o, ok
}

// String returns the assembler mnemonic.
func (o Opcode) String() string {
	if s, ok := o.Syntax(); ok {
		return s.Mnemonic
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// IsMemory reports whether the opcode accesses shared memory.
func (o Opcode) IsMemory() bool {
	switch o {
	case OpLoad, OpStore, OpSyncLoad, OpSyncStore, OpTAS, OpSwap:
		return true
	}
	return false
}

// IsBranch reports whether the opcode may transfer control.
func (o Opcode) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp:
		return true
	}
	return false
}

// MemKind returns the mem.Kind corresponding to a memory opcode. It panics
// on non-memory opcodes.
func (o Opcode) MemKind() mem.Kind {
	switch o {
	case OpLoad:
		return mem.Read
	case OpStore:
		return mem.Write
	case OpSyncLoad:
		return mem.SyncRead
	case OpSyncStore:
		return mem.SyncWrite
	case OpTAS, OpSwap:
		return mem.SyncRMW
	default:
		panic(fmt.Sprintf("program: opcode %v is not a memory operation", o))
	}
}

// Instr is one decoded instruction.
type Instr struct {
	Op     Opcode
	Rd     Reg       // destination register
	Rs     Reg       // first source register
	Rt     Reg       // second source register
	Imm    mem.Value // immediate operand (when UseImm, or for OpLoadImm/OpAddImm)
	UseImm bool      // second operand / store value is Imm rather than a register
	Addr   mem.Addr  // memory address for memory opcodes
	Sym    string    // symbol name of Addr, for diagnostics
	Target int       // branch target: instruction index within the thread
}

// String disassembles the instruction: the location is Sym, or [Addr]
// when unnamed, and a branch target is written @index.
func (in Instr) String() string {
	loc := in.Sym
	if loc == "" {
		loc = fmt.Sprintf("[%d]", in.Addr)
	}
	return string(in.Render(nil, loc, "@"))
}

// Render appends the instruction's text to dst by walking its Syntax:
// the mnemonic, then one operand per slot. loc is written for the var
// slot, and label followed by Target for the label slot.
func (in Instr) Render(dst []byte, loc, label string) []byte {
	syn, ok := in.Op.Syntax()
	if !ok {
		return append(dst, in.Op.String()...)
	}
	dst = append(dst, syn.Mnemonic...)
	for i, s := range syn.Slots {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		if in.UseImm && (s == SlotRsImm || s == SlotRtImm) {
			s = SlotImm
		}
		switch s {
		case SlotRd:
			dst = in.Rd.append(dst)
		case SlotRs, SlotRsImm:
			dst = in.Rs.append(dst)
		case SlotRt, SlotRtImm:
			dst = in.Rt.append(dst)
		case SlotImm:
			dst = strconv.AppendInt(append(dst, '#'), int64(in.Imm), 10)
		case SlotVar:
			dst = append(dst, loc...)
		case SlotLabel:
			dst = strconv.AppendInt(append(dst, label...), int64(in.Target), 10)
		}
	}
	return dst
}

// Thread is one sequential instruction stream.
type Thread struct {
	// Name identifies the thread ("P0", "P1", ...).
	Name string
	// Instrs is the instruction sequence; control starts at index 0 and
	// the thread terminates on OpHalt or by running off the end.
	Instrs []Instr
}

// MemOps counts the static memory instructions in the thread.
func (t *Thread) MemOps() int {
	n := 0
	for _, in := range t.Instrs {
		if in.Op.IsMemory() {
			n++
		}
	}
	return n
}

// String disassembles the thread.
func (t *Thread) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", t.Name)
	for i, in := range t.Instrs {
		fmt.Fprintf(&b, "  %3d  %s\n", i, in.String())
	}
	return b.String()
}

// Program is a complete multi-threaded program plus initial memory state
// and the symbol table mapping variable names to addresses.
type Program struct {
	// Name labels the program in reports.
	Name string
	// Threads holds one instruction stream per processor; thread i runs on
	// processor i.
	Threads []Thread
	// Init gives non-zero initial memory contents.
	Init map[mem.Addr]mem.Value
	// Symbols maps variable names to their addresses.
	Symbols map[string]mem.Addr
	// Cond is an optional litmus postcondition ("exists ..."), naming the
	// outcome of interest.
	Cond *Cond
}

// NumThreads returns the number of threads.
func (p *Program) NumThreads() int { return len(p.Threads) }

// AddrOf resolves a symbol name; ok is false when the symbol is unknown.
func (p *Program) AddrOf(name string) (mem.Addr, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// SymbolFor returns the name mapped to an address, or "" if none. When
// several names alias one address it returns the least, as SymbolNames
// does.
func (p *Program) SymbolFor(a mem.Addr) string {
	name := ""
	for s, addr := range p.Symbols {
		if addr == a && (name == "" || s < name) {
			name = s
		}
	}
	return name
}

// SymbolNames inverts Symbols in one pass: each named address maps to
// what SymbolFor returns for it. Callers that name many addresses build
// it once instead of scanning Symbols per address.
func (p *Program) SymbolNames() map[mem.Addr]string {
	names := make(map[mem.Addr]string, len(p.Symbols))
	for s, a := range p.Symbols {
		nameAddr(names, s, a)
	}
	return names
}

// nameAddr records name for a in an inverted symbol table, keeping the
// least name when several alias one address, so the choice does not
// depend on map iteration order.
func nameAddr(names map[mem.Addr]string, name string, a mem.Addr) {
	if old, ok := names[a]; !ok || name < old {
		names[a] = name
	}
}

// Addresses returns the sorted set of addresses the program can touch:
// every address named by a memory instruction plus every initialized
// address.
func (p *Program) Addresses() []mem.Addr {
	set := make(map[mem.Addr]bool)
	for _, t := range p.Threads {
		for _, in := range t.Instrs {
			if in.Op.IsMemory() {
				set[in.Addr] = true
			}
		}
	}
	for a := range p.Init {
		set[a] = true
	}
	if p.Cond != nil {
		for _, term := range p.Cond.Terms {
			if term.Thread < 0 {
				set[term.Addr] = true
			}
		}
	}
	out := make([]mem.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SyncAddresses returns the sorted set of addresses accessed by at least
// one synchronization operation.
func (p *Program) SyncAddresses() []mem.Addr {
	set := make(map[mem.Addr]bool)
	for _, t := range p.Threads {
		for _, in := range t.Instrs {
			if in.Op.IsMemory() && in.Op.MemKind().IsSync() {
				set[in.Addr] = true
			}
		}
	}
	out := make([]mem.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks structural well-formedness: register numbers in range,
// branch targets within the thread, memory opcodes carrying addresses.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("program %q has no threads", p.Name)
	}
	for ti := range p.Threads {
		t := &p.Threads[ti]
		for i, in := range t.Instrs {
			// The location string is built lazily: Validate runs on every
			// generated program, and formatting each instruction eagerly
			// dominated the campaign's allocation profile.
			where := func() string { return fmt.Sprintf("%s@%d (%s)", t.Name, i, in) }
			if in.Rd >= NumRegs || in.Rs >= NumRegs || in.Rt >= NumRegs {
				return fmt.Errorf("%s: register out of range", where())
			}
			if in.Op.IsBranch() {
				// Target == len(Instrs) is legal: branching past the last
				// instruction halts the thread.
				if in.Target < 0 || in.Target > len(t.Instrs) {
					return fmt.Errorf("%s: branch target %d out of range [0,%d]", where(), in.Target, len(t.Instrs))
				}
			}
			if _, ok := in.Op.Syntax(); !ok {
				return fmt.Errorf("%s: unknown opcode %d", where(), in.Op)
			}
		}
	}
	if p.Cond != nil {
		if err := p.Cond.Validate(p); err != nil {
			return err
		}
	}
	return nil
}

// String disassembles the whole program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	if len(p.Init) > 0 {
		addrs := make([]mem.Addr, 0, len(p.Init))
		for a := range p.Init {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		b.WriteString("init:")
		names := p.SymbolNames()
		for _, a := range addrs {
			sym := names[a]
			if sym == "" {
				sym = fmt.Sprintf("[%d]", a)
			}
			fmt.Fprintf(&b, " %s=%d", sym, p.Init[a])
		}
		b.WriteByte('\n')
	}
	for i := range p.Threads {
		b.WriteString(p.Threads[i].String())
	}
	return b.String()
}
