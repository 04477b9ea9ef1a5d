// Package lang parses and formats the litmus text format: a small
// assembly-like notation for the program IR, so tests can be written in
// files and fed to the command-line tools.
//
// Format:
//
//	# Dekker's store-buffering test
//	program dekker
//	init s=1 counter=0
//
//	thread P0 {
//	  st x, #1
//	  ld r0, y
//	}
//
//	thread P1 {
//	  st y, #1
//	spin:
//	  tas r0, s
//	  bne r0, #0, spin
//	}
//
// An optional postcondition names the outcome of interest, herd-style:
//
//	exists P0:r0=0 & P1:r0=0
//	exists x=2
//
// Variables are named identifiers allocated on first use (or pinned by
// init). Registers are r0..r15. Labels are identifiers followed by a
// colon on their own line (or preceding an instruction). Immediates are
// written #N. Each instruction is a mnemonic followed by comma-separated
// operands in the order its program.Syntax lists them; the disassembler
// in package program writes the same table.
package lang

import (
	"fmt"
	"strconv"
	"strings"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

type parser struct {
	b      *program.Builder
	th     *program.ThreadBuilder
	name   string
	inited bool
}

// Parse builds a Program from litmus text.
func Parse(src string) (*program.Program, error) {
	p := &parser{}
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		lineNo := i + 1
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line, lineNo); err != nil {
			return nil, err
		}
	}
	if p.b == nil {
		return nil, &ParseError{Line: 1, Msg: "no program directive and no instructions"}
	}
	if p.th != nil {
		return nil, &ParseError{Line: len(lines), Msg: "unterminated thread block (missing })"}
	}
	return p.b.Build()
}

func (p *parser) builder() *program.Builder {
	if p.b == nil {
		name := p.name
		if name == "" {
			name = "litmus"
		}
		p.b = program.NewBuilder(name)
	}
	return p.b
}

func (p *parser) line(line string, n int) error {
	switch {
	case strings.HasPrefix(line, "program "):
		if p.b != nil {
			return &ParseError{Line: n, Msg: "program directive must come first"}
		}
		p.name = strings.TrimSpace(strings.TrimPrefix(line, "program "))
		p.builder()
		return nil
	case strings.HasPrefix(line, "init "):
		b := p.builder()
		for _, kv := range strings.Fields(strings.TrimPrefix(line, "init ")) {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return &ParseError{Line: n, Msg: fmt.Sprintf("bad init %q (want var=value)", kv)}
			}
			v, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return &ParseError{Line: n, Msg: fmt.Sprintf("bad init value %q", parts[1])}
			}
			b.InitVar(parts[0], mem.Value(v))
		}
		return nil
	case strings.HasPrefix(line, "thread"):
		if p.th != nil {
			return &ParseError{Line: n, Msg: "nested thread block"}
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, "thread"))
		if !strings.HasSuffix(rest, "{") {
			return &ParseError{Line: n, Msg: "thread header must end with {"}
		}
		name := strings.TrimSpace(strings.TrimSuffix(rest, "{"))
		if name == "" {
			p.th = p.builder().Thread()
		} else {
			p.th = p.builder().NamedThread(name)
		}
		return nil
	case line == "}":
		if p.th == nil {
			return &ParseError{Line: n, Msg: "unmatched }"}
		}
		p.th = nil
		return nil
	case strings.HasPrefix(line, "exists "):
		if p.th != nil {
			return &ParseError{Line: n, Msg: "exists must appear outside thread blocks"}
		}
		return p.exists(strings.TrimPrefix(line, "exists "), n)
	}
	if p.th == nil {
		return &ParseError{Line: n, Msg: fmt.Sprintf("instruction %q outside a thread block", line)}
	}
	// Leading labels: "name: instr" or bare "name:".
	for {
		idx := strings.Index(line, ":")
		if idx < 0 {
			break
		}
		label := strings.TrimSpace(line[:idx])
		if !isIdent(label) {
			return &ParseError{Line: n, Msg: fmt.Sprintf("bad label %q", label)}
		}
		p.th.Label(label)
		line = strings.TrimSpace(line[idx+1:])
		if line == "" {
			return nil
		}
	}
	return p.instr(line, n)
}

// operand categories.
type operand struct {
	kind byte // 'r' register, 'i' immediate, 'v' identifier (a variable or a label)
	reg  program.Reg
	imm  mem.Value
	name string
}

func (p *parser) parseOperand(tok string, n int) (operand, error) {
	tok = strings.TrimSpace(tok)
	switch {
	case tok == "":
		return operand{}, &ParseError{Line: n, Msg: "empty operand"}
	case strings.HasPrefix(tok, "#"):
		v, err := strconv.ParseInt(tok[1:], 10, 64)
		if err != nil {
			return operand{}, &ParseError{Line: n, Msg: fmt.Sprintf("bad immediate %q", tok)}
		}
		return operand{kind: 'i', imm: mem.Value(v)}, nil
	case len(tok) >= 2 && (tok[0] == 'r' || tok[0] == 'R') && isDigits(tok[1:]):
		v, _ := strconv.Atoi(tok[1:])
		if v >= program.NumRegs {
			return operand{}, &ParseError{Line: n, Msg: fmt.Sprintf("register %q out of range", tok)}
		}
		return operand{kind: 'r', reg: program.Reg(v)}, nil
	case isIdent(tok):
		return operand{kind: 'v', name: tok}, nil
	default:
		return operand{}, &ParseError{Line: n, Msg: fmt.Sprintf("bad operand %q", tok)}
	}
}

func (p *parser) operands(rest string, n int, want int) ([]operand, error) {
	var out []operand
	if strings.TrimSpace(rest) != "" {
		for _, tok := range strings.Split(rest, ",") {
			op, err := p.parseOperand(tok, n)
			if err != nil {
				return nil, err
			}
			out = append(out, op)
		}
	}
	if len(out) != want {
		return nil, &ParseError{Line: n, Msg: fmt.Sprintf("want %d operands, got %d", want, len(out))}
	}
	return out, nil
}

// instr parses one instruction against its opcode's Syntax: the
// operand count must match the slots, and each operand's kind its slot.
func (p *parser) instr(line string, n int) error {
	mnemonic, rest := line, ""
	if idx := strings.IndexAny(line, " \t"); idx >= 0 {
		mnemonic, rest = line[:idx], line[idx+1:]
	}
	op, ok := program.OpcodeNamed(mnemonic)
	if !ok {
		return &ParseError{Line: n, Msg: fmt.Sprintf("unknown mnemonic %q", mnemonic)}
	}
	syn, _ := op.Syntax()
	ops, err := p.operands(rest, n, len(syn.Slots))
	if err != nil {
		return err
	}
	in, label := program.Instr{Op: op}, ""
	for i, o := range ops {
		switch s := syn.Slots[i]; {
		case o.kind == 'r' && s == program.SlotRd:
			in.Rd = o.reg
		case o.kind == 'r' && (s == program.SlotRs || s == program.SlotRsImm):
			in.Rs = o.reg
		case o.kind == 'r' && (s == program.SlotRt || s == program.SlotRtImm):
			in.Rt = o.reg
		case o.kind == 'i' && (s == program.SlotImm || s == program.SlotRsImm || s == program.SlotRtImm):
			in.Imm, in.UseImm = o.imm, s != program.SlotImm
		case o.kind == 'v' && s == program.SlotVar:
			in.Addr = p.builder().Var(o.name)
		case o.kind == 'v' && s == program.SlotLabel:
			label = o.name
		default:
			shape := make([]string, len(syn.Slots))
			for j, s := range syn.Slots {
				shape[j] = s.String()
			}
			return &ParseError{Line: n, Msg: mnemonic + " wants " + strings.Join(shape, ", ") + " in " + strconv.Quote(line)}
		}
	}
	p.th.Emit(in, label)
	return nil
}

// exists parses a postcondition: "exists P0:r0=0 & P1:r1=1 & x=2".
func (p *parser) exists(rest string, n int) error {
	b := p.builder()
	cond := &program.Cond{}
	for _, raw := range strings.Split(rest, "&") {
		term := strings.TrimSpace(raw)
		eq := strings.LastIndex(term, "=")
		if eq <= 0 || eq == len(term)-1 {
			return &ParseError{Line: n, Msg: fmt.Sprintf("bad condition term %q (want lhs=value)", term)}
		}
		lhs, rhs := strings.TrimSpace(term[:eq]), strings.TrimSpace(term[eq+1:])
		v, err := strconv.ParseInt(rhs, 10, 64)
		if err != nil {
			return &ParseError{Line: n, Msg: fmt.Sprintf("bad condition value %q", rhs)}
		}
		var ct program.CondTerm
		ct.Value = mem.Value(v)
		if colon := strings.Index(lhs, ":"); colon >= 0 {
			tname, rname := strings.TrimSpace(lhs[:colon]), strings.TrimSpace(lhs[colon+1:])
			if len(tname) < 2 || (tname[0] != 'P' && tname[0] != 'p') || !isDigits(tname[1:]) {
				return &ParseError{Line: n, Msg: fmt.Sprintf("bad thread name %q (want P<k>)", tname)}
			}
			tid, _ := strconv.Atoi(tname[1:])
			op, err := p.parseOperand(rname, n)
			if err != nil || op.kind != 'r' {
				return &ParseError{Line: n, Msg: fmt.Sprintf("bad register %q in condition", rname)}
			}
			ct.Thread = tid
			ct.Reg = op.reg
		} else {
			if !isIdent(lhs) {
				return &ParseError{Line: n, Msg: fmt.Sprintf("bad location %q in condition", lhs)}
			}
			ct.Thread = -1
			ct.Addr = b.Var(lhs)
			ct.Sym = lhs
		}
		cond.Terms = append(cond.Terms, ct)
	}
	if len(cond.Terms) == 0 {
		return &ParseError{Line: n, Msg: "empty exists condition"}
	}
	b.SetCond(cond)
	return nil
}

// stripComment removes trailing comments: "//" or ";" anywhere, and "#"
// when it does not introduce an immediate (#N or #-N).
func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		switch {
		case line[i] == ';':
			return line[:i]
		case line[i] == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		case line[i] == '#':
			rest := line[i+1:]
			isImm := len(rest) > 0 && (rest[0] == '-' || (rest[0] >= '0' && rest[0] <= '9'))
			if !isImm {
				return line[:i]
			}
		}
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
