package lang

import "testing"

// TestParseErrorMessages pins the parser's exact error text: one
// wrong-operand-kind case per operand shape, the operand-count, unknown
// mnemonic and operand-syntax errors, and their precedence (the mnemonic
// is checked before its operands, each operand's syntax before the
// count, the count before the kinds).
func TestParseErrorMessages(t *testing.T) {
	cases := []struct{ instr, want string }{
		{"li r0, r1", `line 2: li wants rD, #imm in "li r0, r1"`},
		{"li x, #1", `line 2: li wants rD, #imm in "li x, #1"`},
		{"mov r0, #1", `line 2: mov wants rD, rS in "mov r0, #1"`},
		{"add r0, r1, #2", `line 2: add wants rD, rS, rT in "add r0, r1, #2"`},
		{"sub r0, x, r2", `line 2: sub wants rD, rS, rT in "sub r0, x, r2"`},
		{"addi r0, r1, r2", `line 2: addi wants rD, rS, #imm in "addi r0, r1, r2"`},
		{"ld r0, #1", `line 2: ld wants rD, var in "ld r0, #1"`},
		{"sld x, y", `line 2: sld wants rD, var in "sld x, y"`},
		{"st r0, #1", `line 2: st wants var, rS|#imm in "st r0, #1"`},
		{"st x, y", `line 2: st wants var, rS|#imm in "st x, y"`},
		{"sst #1, r0", `line 2: sst wants var, rS|#imm in "sst #1, r0"`},
		{"sst x, lbl", `line 2: sst wants var, rS|#imm in "sst x, lbl"`},
		{"tas x, r0", `line 2: tas wants rD, var in "tas x, r0"`},
		{"swap r0, x, y", `line 2: swap wants rD, var, rS|#imm in "swap r0, x, y"`},
		{"swap x, r0, #1", `line 2: swap wants rD, var, rS|#imm in "swap x, r0, #1"`},
		{"beq r0, r1, #3", `line 2: beq wants rS, rT|#imm, label in "beq r0, r1, #3"`},
		{"bne r0, x, lbl", `line 2: bne wants rS, rT|#imm, label in "bne r0, x, lbl"`},
		{"blt #1, r1, lbl", `line 2: blt wants rS, rT|#imm, label in "blt #1, r1, lbl"`},
		{"bge r0, #1, r2", `line 2: bge wants rS, rT|#imm, label in "bge r0, #1, r2"`},
		{"jmp r0", `line 2: jmp wants label in "jmp r0"`},
		{"jmp #1", `line 2: jmp wants label in "jmp #1"`},
		{"add r0, r1", `line 2: want 3 operands, got 2`},
		{"nop r0", `line 2: want 0 operands, got 1`},
		{"jmp", `line 2: want 1 operands, got 0`},
		{"st x, #1, #2", `line 2: want 2 operands, got 3`},
		{"mul r0, r1, r2", `line 2: unknown mnemonic "mul"`},
		{"mul r99", `line 2: unknown mnemonic "mul"`},
		{"li r16, #1", `line 2: register "r16" out of range`},
		{"li r0, #1x", `line 2: bad immediate "#1x"`},
		{"li r0, ,", `line 2: empty operand`},
		{"li r0, @", `line 2: bad operand "@"`},
		{"add r0, r1, r99", `line 2: register "r99" out of range`},
	}
	for _, c := range cases {
		_, err := Parse("thread P0 {\n  " + c.instr + "\n}\n")
		if err == nil {
			t.Errorf("%q: parsed, want error %q", c.instr, c.want)
			continue
		}
		if got := err.Error(); got != c.want {
			t.Errorf("%q: error\n  got  %q\n  want %q", c.instr, got, c.want)
		}
	}
}
