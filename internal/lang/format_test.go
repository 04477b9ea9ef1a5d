package lang

import (
	"strings"
	"testing"

	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// TestFormatFullSurface formats a program exercising every instruction
// form and re-parses it, comparing instruction streams structurally.
func TestFormatFullSurface(t *testing.T) {
	b := program.NewBuilder("surface")
	x, s := b.Var("x"), b.Var("s")
	b.InitVar("x", 3)
	th := b.Thread()
	th.Nop()
	th.LoadImm(program.R0, 1)
	th.Mov(program.R1, program.R0)
	th.Add(program.R2, program.R0, program.R1)
	th.AddImm(program.R3, program.R2, -4)
	th.Sub(program.R4, program.R3, program.R0)
	th.Load(program.R5, x)
	th.Store(x, program.R5)
	th.StoreImm(x, 9)
	th.SyncLoad(program.R6, s)
	th.SyncStore(s, program.R6)
	th.SyncStoreImm(s, 0)
	th.TAS(program.R7, s)
	th.Swap(program.R0, s, program.R1)
	th.SwapImm(program.R0, s, 5)
	th.Label("top")
	th.Beq(program.R0, program.R1, "top")
	th.BeqImm(program.R0, 1, "top")
	th.Bne(program.R0, program.R1, "top")
	th.BneImm(program.R0, 1, "top")
	th.Blt(program.R0, program.R1, "top")
	th.BltImm(program.R0, 1, "top")
	th.Bge(program.R0, program.R1, "top")
	th.BgeImm(program.R0, 1, "top")
	th.Jmp("top")
	th.Fence()
	th.Halt()
	p := b.MustBuild()

	text := Format(p)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if back.NumThreads() != 1 {
		t.Fatal("thread lost")
	}
	a, bb := p.Threads[0].Instrs, back.Threads[0].Instrs
	if len(a) != len(bb) {
		t.Fatalf("instruction counts differ: %d vs %d\n%s", len(a), len(bb), text)
	}
	for i := range a {
		if a[i].Op != bb[i].Op || a[i].Rd != bb[i].Rd || a[i].Rs != bb[i].Rs ||
			a[i].Rt != bb[i].Rt || a[i].Imm != bb[i].Imm || a[i].UseImm != bb[i].UseImm ||
			a[i].Target != bb[i].Target {
			t.Errorf("instr %d differs: %+v vs %+v", i, a[i], bb[i])
		}
	}
	// Init survives.
	xa, _ := back.AddrOf("x")
	if back.Init[xa] != 3 {
		t.Error("init lost in round trip")
	}
}

func TestFormatUnnamedVariables(t *testing.T) {
	// Figure-style executions use raw addresses; Format must synthesize
	// names that parse back.
	p := &program.Program{
		Name: "raw",
		Threads: []program.Thread{{
			Name: "P0",
			Instrs: []program.Instr{
				{Op: program.OpStore, Addr: 7, Imm: 1, UseImm: true},
				{Op: program.OpLoad, Rd: program.R0, Addr: 7},
			},
		}},
	}
	text := Format(p)
	if !strings.Contains(text, "v7") {
		t.Errorf("expected synthesized name v7:\n%s", text)
	}
	if _, err := Parse(text); err != nil {
		t.Fatalf("reparse: %v", err)
	}
}

func TestFormatTrailingLabel(t *testing.T) {
	// A branch to the end of the thread needs a trailing label + nop.
	b := program.NewBuilder("tail")
	th := b.Thread()
	th.LoadImm(program.R0, 1)
	th.BeqImm(program.R0, 1, "end")
	th.StoreImm(b.Var("x"), 2)
	th.Label("end")
	p := b.MustBuild()
	text := Format(p)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseOperandEdgeCases(t *testing.T) {
	cases := []string{
		"program x\nthread P0 {\n ld r0, 9bad\n}\n",    // ident starting with digit
		"program x\nthread P0 {\n st x, \n}\n",         // empty operand
		"program x\nthread P0 {\n mov r0, #1\n}\n",     // immediate where reg required
		"program x\nthread P0 {\n beq r0, r1, r2\n}\n", // register as label is legal? r2 parses as reg, not label
		"program x\nthread P0 {\n swap r0, x, x\n}\n",  // variable as swap source
		"program x\nthread P0 {\n jmp #3\n}\n",         // immediate as label
		"program x\nthread P0 {\n :\n}\n",              // empty label
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected a parse error", i)
		}
	}
}

func TestFormatLitmusLibraryRoundTripsStructurally(t *testing.T) {
	for _, p := range litmus.All() {
		back, err := Parse(Format(p))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if back.NumThreads() != p.NumThreads() {
			t.Errorf("%s: thread count changed", p.Name)
		}
		for ti := range p.Threads {
			if len(back.Threads[ti].Instrs) != len(p.Threads[ti].Instrs) {
				t.Errorf("%s thread %d: instruction count changed", p.Name, ti)
			}
		}
		// Init values preserved by name.
		for name, addr := range p.Symbols {
			v := p.Init[addr]
			ba, ok := back.AddrOf(name)
			if !ok {
				// Unreferenced symbols may be dropped; only initialized or
				// referenced ones must survive.
				if v != 0 {
					t.Errorf("%s: symbol %q lost", p.Name, name)
				}
				continue
			}
			if back.Init[ba] != v {
				t.Errorf("%s: init %q = %d, want %d", p.Name, name, back.Init[ba], v)
			}
		}
	}
}

func TestVarNameFallback(t *testing.T) {
	p := &program.Program{Name: "n", Symbols: map[string]mem.Addr{"named": 3}}
	names := p.SymbolNames()
	if got := varName(names, 3); got != "named" {
		t.Errorf("varName = %q", got)
	}
	if got := varName(names, 9); got != "v9" {
		t.Errorf("varName fallback = %q", got)
	}
}
