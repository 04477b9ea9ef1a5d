package lang

import (
	"fmt"
	"sort"
	"strings"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Format renders a Program in the litmus text format accepted by Parse.
// Branch targets are materialized as generated labels L<index>; variable
// names come from the symbol table, falling back to v<addr>.
//
// The init line declares every referenced variable in ascending address
// order, including zero-valued ones. Parse allocates addresses in
// first-use order, so this declaration order makes the round trip
// address-preserving whenever the program's referenced addresses are
// dense from 0 (the Builder's allocation scheme) — which matters because
// machine behavior (memory-module homing) depends on raw addresses, and
// shrunk reproducers must replay against the same machine behavior.
func Format(p *program.Program) string {
	var b strings.Builder
	var line []byte
	fmt.Fprintf(&b, "program %s\n", p.Name)
	names := p.SymbolNames()

	if addrs := referencedAddrs(p); len(addrs) > 0 {
		b.WriteString("init")
		for _, a := range addrs {
			fmt.Fprintf(&b, " %s=%d", varName(names, a), p.Init[a])
		}
		b.WriteByte('\n')
	}

	if p.Cond != nil {
		fmt.Fprintf(&b, "%s\n", p.Cond.String())
	}

	for ti := range p.Threads {
		t := &p.Threads[ti]
		fmt.Fprintf(&b, "\nthread %s {\n", t.Name)
		// Collect label positions.
		labels := make(map[int]bool)
		for _, in := range t.Instrs {
			if in.Op.IsBranch() {
				labels[in.Target] = true
			}
		}
		for i, in := range t.Instrs {
			if labels[i] {
				fmt.Fprintf(&b, "L%d:\n", i)
			}
			loc := ""
			if in.Op.IsMemory() {
				loc = varName(names, in.Addr)
			}
			line = append(in.Render(append(line[:0], "  "...), loc, "L"), '\n')
			b.Write(line)
		}
		if labels[len(t.Instrs)] {
			fmt.Fprintf(&b, "L%d:\n  nop\n", len(t.Instrs))
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// referencedAddrs returns, in ascending order, every address the program
// touches: memory operands, initialized locations, and postcondition
// memory terms. Symbols that are bound but never referenced are dropped.
func referencedAddrs(p *program.Program) []mem.Addr {
	seen := make(map[mem.Addr]bool)
	for ti := range p.Threads {
		for _, in := range p.Threads[ti].Instrs {
			if in.Op.IsMemory() {
				seen[in.Addr] = true
			}
		}
	}
	for a := range p.Init {
		seen[a] = true
	}
	if p.Cond != nil {
		for _, t := range p.Cond.Terms {
			if t.Thread < 0 {
				seen[t.Addr] = true
			}
		}
	}
	addrs := make([]mem.Addr, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

func varName(names map[mem.Addr]string, a mem.Addr) string {
	if s := names[a]; s != "" {
		return s
	}
	return fmt.Sprintf("v%d", a)
}
