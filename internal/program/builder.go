package program

import (
	"fmt"

	"weakorder/internal/mem"
)

// Builder assembles a Program: it allocates symbol addresses, creates
// threads, and resolves branch labels when Build is called.
//
// Usage:
//
//	b := program.NewBuilder("dekker")
//	x, y := b.Var("x"), b.Var("y")
//	p0 := b.Thread()
//	p0.StoreImm(x, 1)
//	p0.Load(program.R0, y)
//	prog, err := b.Build()
type Builder struct {
	name    string
	symbols map[string]mem.Addr
	names   map[mem.Addr]string // symbols inverted (see nameAddr)
	next    mem.Addr
	init    map[mem.Addr]mem.Value
	threads []*ThreadBuilder
	cond    *Cond
	err     error
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		symbols: make(map[string]mem.Addr),
		names:   make(map[mem.Addr]string),
		init:    make(map[mem.Addr]mem.Value),
	}
}

// Var allocates (or returns the existing) address for the named variable.
// Distinct names get distinct addresses, assigned consecutively from 0.
func (b *Builder) Var(name string) mem.Addr {
	if a, ok := b.symbols[name]; ok {
		return a
	}
	a := b.next
	b.next++
	b.symbols[name] = a
	nameAddr(b.names, name, a)
	return a
}

// VarAt binds name to an explicit address. It records an error if the name
// is already bound elsewhere.
func (b *Builder) VarAt(name string, a mem.Addr) mem.Addr {
	if old, ok := b.symbols[name]; ok && old != a {
		b.fail(fmt.Errorf("symbol %q already bound to address %d", name, old))
		return old
	}
	b.symbols[name] = a
	nameAddr(b.names, name, a)
	if a >= b.next {
		b.next = a + 1
	}
	return a
}

// Init sets the initial value of an address.
func (b *Builder) Init(a mem.Addr, v mem.Value) { b.init[a] = v }

// InitVar sets the initial value of a named variable, allocating it if
// necessary.
func (b *Builder) InitVar(name string, v mem.Value) { b.init[b.Var(name)] = v }

// SetCond attaches a postcondition to the program under construction.
func (b *Builder) SetCond(c *Cond) { b.cond = c }

// Thread appends a new thread named P<i> and returns its builder.
func (b *Builder) Thread() *ThreadBuilder {
	return b.NamedThread(fmt.Sprintf("P%d", len(b.threads)))
}

// NamedThread appends a new thread with an explicit name.
func (b *Builder) NamedThread(name string) *ThreadBuilder {
	tb := &ThreadBuilder{parent: b, name: name, labels: make(map[string]int)}
	b.threads = append(b.threads, tb)
	return tb
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build resolves labels and returns the validated Program. The first error
// encountered during construction is returned here.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := &Program{
		Name:    b.name,
		Init:    make(map[mem.Addr]mem.Value, len(b.init)),
		Symbols: make(map[string]mem.Addr, len(b.symbols)),
	}
	for a, v := range b.init {
		p.Init[a] = v
	}
	for s, a := range b.symbols {
		p.Symbols[s] = a
	}
	p.Cond = b.cond
	for _, tb := range b.threads {
		t, err := tb.finish()
		if err != nil {
			return nil, err
		}
		p.Threads = append(p.Threads, t)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; intended for tests and
// hand-written litmus programs whose construction cannot fail.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// ThreadBuilder accumulates instructions for one thread. Branch targets
// are symbolic labels resolved at Build time; a label may be referenced
// before it is defined (forward branch).
type ThreadBuilder struct {
	parent  *Builder
	name    string
	instrs  []Instr
	labels  map[string]int
	patches []patch
}

type patch struct {
	instr int
	label string
}

// Name returns the thread's name.
func (t *ThreadBuilder) Name() string { return t.name }

// Len returns the number of instructions emitted so far.
func (t *ThreadBuilder) Len() int { return len(t.instrs) }

// Emit appends any instruction. For a branch opcode, label names its
// target, resolved at Build time; other opcodes ignore label.
func (t *ThreadBuilder) Emit(in Instr, label string) *ThreadBuilder {
	if in.Op.IsBranch() {
		t.patches = append(t.patches, patch{instr: len(t.instrs), label: label})
	}
	if in.Sym == "" && in.Op.IsMemory() {
		in.Sym = t.parent.names[in.Addr]
	}
	t.instrs = append(t.instrs, in)
	return t
}

// Label defines a label at the current position.
func (t *ThreadBuilder) Label(name string) *ThreadBuilder {
	if _, dup := t.labels[name]; dup {
		t.parent.fail(fmt.Errorf("%s: duplicate label %q", t.name, name))
		return t
	}
	t.labels[name] = len(t.instrs)
	return t
}

// Nop emits a no-op.
func (t *ThreadBuilder) Nop() *ThreadBuilder { return t.Emit(Instr{Op: OpNop}, "") }

// LoadImm emits rd <- imm.
func (t *ThreadBuilder) LoadImm(rd Reg, imm mem.Value) *ThreadBuilder {
	return t.Emit(Instr{Op: OpLoadImm, Rd: rd, Imm: imm}, "")
}

// Mov emits rd <- rs.
func (t *ThreadBuilder) Mov(rd, rs Reg) *ThreadBuilder {
	return t.Emit(Instr{Op: OpMov, Rd: rd, Rs: rs}, "")
}

// Add emits rd <- rs + rt.
func (t *ThreadBuilder) Add(rd, rs, rt Reg) *ThreadBuilder {
	return t.Emit(Instr{Op: OpAdd, Rd: rd, Rs: rs, Rt: rt}, "")
}

// AddImm emits rd <- rs + imm.
func (t *ThreadBuilder) AddImm(rd, rs Reg, imm mem.Value) *ThreadBuilder {
	return t.Emit(Instr{Op: OpAddImm, Rd: rd, Rs: rs, Imm: imm}, "")
}

// Sub emits rd <- rs - rt.
func (t *ThreadBuilder) Sub(rd, rs, rt Reg) *ThreadBuilder {
	return t.Emit(Instr{Op: OpSub, Rd: rd, Rs: rs, Rt: rt}, "")
}

// Load emits a data read of addr into rd.
func (t *ThreadBuilder) Load(rd Reg, addr mem.Addr) *ThreadBuilder {
	return t.Emit(Instr{Op: OpLoad, Rd: rd, Addr: addr}, "")
}

// Store emits a data write of rs to addr.
func (t *ThreadBuilder) Store(addr mem.Addr, rs Reg) *ThreadBuilder {
	return t.Emit(Instr{Op: OpStore, Rs: rs, Addr: addr}, "")
}

// StoreImm emits a data write of imm to addr.
func (t *ThreadBuilder) StoreImm(addr mem.Addr, imm mem.Value) *ThreadBuilder {
	return t.Emit(Instr{Op: OpStore, Imm: imm, UseImm: true, Addr: addr}, "")
}

// SyncLoad emits a read-only synchronization operation (Test) of addr
// into rd.
func (t *ThreadBuilder) SyncLoad(rd Reg, addr mem.Addr) *ThreadBuilder {
	return t.Emit(Instr{Op: OpSyncLoad, Rd: rd, Addr: addr}, "")
}

// SyncStore emits a write-only synchronization operation writing rs.
func (t *ThreadBuilder) SyncStore(addr mem.Addr, rs Reg) *ThreadBuilder {
	return t.Emit(Instr{Op: OpSyncStore, Rs: rs, Addr: addr}, "")
}

// SyncStoreImm emits a write-only synchronization operation writing imm
// (Set when imm != 0, Unset when imm == 0).
func (t *ThreadBuilder) SyncStoreImm(addr mem.Addr, imm mem.Value) *ThreadBuilder {
	return t.Emit(Instr{Op: OpSyncStore, Imm: imm, UseImm: true, Addr: addr}, "")
}

// TAS emits a TestAndSet: rd <- M[addr]; M[addr] <- 1 atomically.
func (t *ThreadBuilder) TAS(rd Reg, addr mem.Addr) *ThreadBuilder {
	return t.Emit(Instr{Op: OpTAS, Rd: rd, Addr: addr}, "")
}

// Swap emits a general atomic read-modify-write: rd <- M[addr];
// M[addr] <- rs.
func (t *ThreadBuilder) Swap(rd Reg, addr mem.Addr, rs Reg) *ThreadBuilder {
	return t.Emit(Instr{Op: OpSwap, Rd: rd, Addr: addr, Rs: rs}, "")
}

// SwapImm emits rd <- M[addr]; M[addr] <- imm atomically.
func (t *ThreadBuilder) SwapImm(rd Reg, addr mem.Addr, imm mem.Value) *ThreadBuilder {
	return t.Emit(Instr{Op: OpSwap, Rd: rd, Addr: addr, Imm: imm, UseImm: true}, "")
}

// Beq emits: branch to label when rs == rt.
func (t *ThreadBuilder) Beq(rs, rt Reg, label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpBeq, Rs: rs, Rt: rt}, label)
}

// BeqImm emits: branch to label when rs == imm.
func (t *ThreadBuilder) BeqImm(rs Reg, imm mem.Value, label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpBeq, Rs: rs, Imm: imm, UseImm: true}, label)
}

// Bne emits: branch to label when rs != rt.
func (t *ThreadBuilder) Bne(rs, rt Reg, label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpBne, Rs: rs, Rt: rt}, label)
}

// BneImm emits: branch to label when rs != imm.
func (t *ThreadBuilder) BneImm(rs Reg, imm mem.Value, label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpBne, Rs: rs, Imm: imm, UseImm: true}, label)
}

// Blt emits: branch to label when rs < rt.
func (t *ThreadBuilder) Blt(rs, rt Reg, label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpBlt, Rs: rs, Rt: rt}, label)
}

// BltImm emits: branch to label when rs < imm.
func (t *ThreadBuilder) BltImm(rs Reg, imm mem.Value, label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpBlt, Rs: rs, Imm: imm, UseImm: true}, label)
}

// Bge emits: branch to label when rs >= rt.
func (t *ThreadBuilder) Bge(rs, rt Reg, label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpBge, Rs: rs, Rt: rt}, label)
}

// BgeImm emits: branch to label when rs >= imm.
func (t *ThreadBuilder) BgeImm(rs Reg, imm mem.Value, label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpBge, Rs: rs, Imm: imm, UseImm: true}, label)
}

// Jmp emits an unconditional branch to label.
func (t *ThreadBuilder) Jmp(label string) *ThreadBuilder {
	return t.Emit(Instr{Op: OpJmp}, label)
}

// Halt terminates the thread.
func (t *ThreadBuilder) Halt() *ThreadBuilder { return t.Emit(Instr{Op: OpHalt}, "") }

// Fence emits an RP3-style fence: the processor waits for all previous
// accesses to be globally performed before issuing any further access.
func (t *ThreadBuilder) Fence() *ThreadBuilder { return t.Emit(Instr{Op: OpFence}, "") }

func (t *ThreadBuilder) finish() (Thread, error) {
	instrs := make([]Instr, len(t.instrs))
	copy(instrs, t.instrs)
	for _, p := range t.patches {
		target, ok := t.labels[p.label]
		if !ok {
			return Thread{}, fmt.Errorf("%s: undefined label %q", t.name, p.label)
		}
		instrs[p.instr].Target = target
	}
	return Thread{Name: t.name, Instrs: instrs}, nil
}
