package program

import (
	"strings"
	"testing"

	"weakorder/internal/mem"
)

// TestBuilderFullInstructionSurface drives every ThreadBuilder emitter and
// checks the assembled instructions decode as expected.
func TestBuilderFullInstructionSurface(t *testing.T) {
	b := NewBuilder("surface")
	x, s := b.Var("x"), b.Var("s")
	b.Init(x, 3)
	th := b.Thread()
	if th.Name() != "P0" {
		t.Errorf("Name = %q", th.Name())
	}
	th.Nop()
	th.LoadImm(R0, 1)
	th.Mov(R1, R0)
	th.Add(R2, R0, R1)
	th.AddImm(R3, R2, 4)
	th.Sub(R4, R3, R0)
	th.Load(R5, x)
	th.Store(x, R5)
	th.StoreImm(x, 9)
	th.SyncLoad(R6, s)
	th.SyncStore(s, R6)
	th.SyncStoreImm(s, 0)
	th.TAS(R7, s)
	th.Swap(R0, s, R1)
	th.SwapImm(R0, s, 5)
	th.Label("top")
	th.Beq(R0, R1, "top")
	th.BeqImm(R0, 1, "top")
	th.Bne(R0, R1, "top")
	th.BneImm(R0, 1, "top")
	th.Blt(R0, R1, "top")
	th.BltImm(R0, 1, "top")
	th.Bge(R0, R1, "top")
	th.BgeImm(R0, 1, "top")
	th.Jmp("top")
	th.Fence()
	th.Halt()
	if th.Len() == 0 {
		t.Fatal("Len must count instructions")
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Init[x] != 3 {
		t.Errorf("Init = %d", p.Init[x])
	}
	wantOps := []Opcode{
		OpNop, OpLoadImm, OpMov, OpAdd, OpAddImm, OpSub, OpLoad, OpStore,
		OpStore, OpSyncLoad, OpSyncStore, OpSyncStore, OpTAS, OpSwap, OpSwap,
		OpBeq, OpBeq, OpBne, OpBne, OpBlt, OpBlt, OpBge, OpBge, OpJmp,
		OpFence, OpHalt,
	}
	got := p.Threads[0].Instrs
	if len(got) != len(wantOps) {
		t.Fatalf("emitted %d instructions, want %d", len(got), len(wantOps))
	}
	for i, want := range wantOps {
		if got[i].Op != want {
			t.Errorf("instr %d: op %v, want %v", i, got[i].Op, want)
		}
	}
	// Every branch targets the label.
	for i, in := range got {
		if in.Op.IsBranch() && in.Target != 15 {
			t.Errorf("instr %d: target %d, want 15", i, in.Target)
		}
	}
	// Full-program disassembly mentions every mnemonic.
	text := p.String()
	for _, m := range []string{"nop", "li", "mov", "add", "addi", "sub",
		"ld", "st", "sld", "sst", "tas", "swap", "beq", "bne", "blt", "bge",
		"jmp", "fence", "halt", "init:"} {
		if !strings.Contains(text, m) {
			t.Errorf("disassembly missing %q", m)
		}
	}
}

func TestInstrStringUnnamedAddress(t *testing.T) {
	for _, c := range []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpLoad, Rd: R2, Addr: 7}, "ld r2, [7]"},
		// Stores and swaps write Rs, never Rt.
		{Instr{Op: OpStore, Rs: R3, Addr: 7}, "st [7], r3"},
		{Instr{Op: OpSyncStore, Rs: R3, Rt: R5, Addr: 7}, "sst [7], r3"},
		{Instr{Op: OpStore, Imm: 4, UseImm: true, Addr: 7}, "st [7], #4"},
		{Instr{Op: OpSwap, Rd: R1, Rs: R3, Addr: 7}, "swap r1, [7], r3"},
		{Instr{Op: OpSwap, Rd: R1, Imm: 2, UseImm: true, Addr: 7}, "swap r1, [7], #2"},
		{Instr{Op: OpBne, Rs: R1, Rt: R2, Target: 3}, "bne r1, r2, @3"},
		{Instr{Op: OpBeq, Rs: R1, Imm: 5, UseImm: true, Target: 3}, "beq r1, #5, @3"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	bad := Instr{Op: Opcode(99)}
	if !strings.Contains(bad.String(), "Opcode(99)") {
		t.Errorf("unknown opcode String = %q", bad.String())
	}
	if !strings.Contains(Opcode(99).String(), "Opcode(99)") {
		t.Error("Opcode.String for unknown value")
	}
	if Reg(9).String() != "r9" {
		t.Error("Reg.String")
	}
}

func TestValidateRejectsBadRegister(t *testing.T) {
	p := &Program{
		Name:    "bad",
		Threads: []Thread{{Name: "P0", Instrs: []Instr{{Op: OpMov, Rd: 200}}}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("register 200 must fail validation")
	}
}

func TestValidateRejectsUnknownOpcode(t *testing.T) {
	p := &Program{
		Name:    "bad",
		Threads: []Thread{{Name: "P0", Instrs: []Instr{{Op: Opcode(99)}}}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("unknown opcode must fail validation")
	}
}

func TestSymbolForUnknown(t *testing.T) {
	p := &Program{Name: "x", Symbols: map[string]mem.Addr{"a": 1}}
	if got := p.SymbolFor(2); got != "" {
		t.Errorf("SymbolFor(2) = %q", got)
	}
	if _, ok := p.AddrOf("zz"); ok {
		t.Error("AddrOf unknown must report false")
	}
}
