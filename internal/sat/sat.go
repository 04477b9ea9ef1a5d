// Package sat decides most appears-SC queries in polynomial time by
// saturating a happens-before graph built from an observed result,
// instead of enumerating idealized interleavings.
//
// Given a program and one observed mem.Result, the decision procedure:
//
//  1. Replays each thread locally, feeding every read the value the
//     result observed for it. A thread's dynamic operation sequence is a
//     pure function of the values its reads return, so the replay
//     reconstructs the unique per-thread operation sequence any matching
//     SC execution must contain — and any mismatch (a missing, extra, or
//     address-inconsistent observation) is a definite rejection.
//  2. Builds an event graph: one node per dynamic memory operation plus
//     an initial pseudo-write, with program-order edges, and derives the
//     reads-from candidates of every read from the observed values.
//  3. Saturates to a fixpoint with edges that must hold in every SC
//     witness: program order; the final-state constraint (the
//     coherence-last write of each location must produce the observed
//     final value); and, for each read whose writer becomes unique, the
//     write-before-read edge plus the classic coherence and from-read
//     closure rules — if w is r's writer and some other same-location
//     write w2 happens-before r, then w2 precedes w; if w precedes w2,
//     then r precedes w2. A cycle is a definite rejection (every added
//     edge is necessary); RMWs are single read+write nodes, so
//     atomicity falls out of the same two rules.
//  4. Accepts only via a verified witness: when every read's writer is
//     resolved and every same-location write pair is ordered, a
//     topological order of the saturated graph is replayed on an SC
//     memory and checked against every observation and the final state.
//     Verifying sequential consistency of an arbitrary acyclic rf graph
//     is NP-complete in general (Gibbons & Korach), which is exactly why
//     acceptance requires the witness, never acyclicity alone.
//
// Everything in between — a read with several possible writers left at
// the fixpoint, an unordered write pair, a blown budget — returns
// Fallback, and the caller keeps its enumeration-based oracle for that
// residue. The verdicts are therefore sound in both directions: Accepted
// and Rejected never disagree with exhaustive enumeration
// (TestSatFastVsEnumeration in internal/check pins this differentially).
package sat

import (
	"weakorder/internal/bitset"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Verdict classifies a decision.
type Verdict uint8

const (
	// Fallback: the polynomial procedure could not decide; the caller
	// must fall back to enumeration. Decision.Reason says why.
	Fallback Verdict = iota
	// Accepted: some SC interleaving reproduces the observed result (a
	// concrete witness order was constructed and verified).
	Accepted
	// Rejected: no SC interleaving reproduces the observed result (the
	// saturated graph of necessary edges is contradictory).
	Rejected
)

// String returns "fallback", "accepted" or "rejected".
func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "accepted"
	case Rejected:
		return "rejected"
	default:
		return "fallback"
	}
}

// Reasons attached to Rejected decisions.
const (
	// ReasonReplay: the observation set is inconsistent with any dynamic
	// execution of the program — a read observation is missing, left
	// over, or names the wrong address for its program-order slot.
	ReasonReplay = "replay-mismatch"
	// ReasonNoWriter: some read observed a value no same-location write
	// (nor the initial state) supplies, or every candidate writer was
	// soundly excluded.
	ReasonNoWriter = "no-writer"
	// ReasonFinal: no write (or initial value) can be coherence-last and
	// still produce the observed final state of some location.
	ReasonFinal = "final-mismatch"
	// ReasonCycle: the necessary-edge graph has a cycle.
	ReasonCycle = "cycle"
)

// Reasons attached to Fallback decisions.
const (
	// ReasonAmbiguousRF: a read retains multiple possible writers at the
	// fixpoint.
	ReasonAmbiguousRF = "ambiguous-rf"
	// ReasonCoIncomplete: a pair of same-location writes is unordered at
	// the fixpoint, so no verified witness can be built.
	ReasonCoIncomplete = "co-incomplete"
	// ReasonTooLarge: the replayed result has more dynamic operations
	// than Config.MaxEvents.
	ReasonTooLarge = "too-large"
	// ReasonReplayBudget: a thread's replay executed more than
	// program.MaxLocalSteps instructions, memory operations included (a
	// runaway loop the observations cannot bound).
	ReasonReplayBudget = "replay-budget"
	// ReasonCanceled: the cooperative cancel hook fired.
	ReasonCanceled = "canceled"
	// ReasonWitness: defensive — the topological witness failed
	// verification (not expected to be reachable; accepting without the
	// check would be unsound, so the case falls back instead).
	ReasonWitness = "witness-invalid"
)

// Config bounds a decision.
type Config struct {
	// MaxEvents bounds the total dynamic memory operations (including
	// the init pseudo-write); beyond it the decision falls back. Zero
	// means DefaultMaxEvents.
	MaxEvents int
	// Cancel, when non-nil, is polled between saturation rounds and
	// periodically during replay; returning true abandons the decision
	// with Fallback/ReasonCanceled.
	Cancel func() bool
}

// DefaultMaxEvents bounds the event graph (two bitsets per node, so the
// worst case is ~2·MaxEvents²/8 bytes of closure state).
const DefaultMaxEvents = 1024

// cancelPollMask: replay polls Cancel every 256 steps, matching
// the ideal/scmatch convention.
const cancelPollMask = 255

// Decision is the outcome of Decide.
type Decision struct {
	Verdict Verdict
	// Reason explains a rejection or fallback; empty for Accepted.
	Reason string
	// Events is the event-graph size (dynamic memory operations + 1);
	// zero when replay never completed.
	Events int
}

func (c Config) maxEvents() int {
	if c.MaxEvents > 0 {
		return c.MaxEvents
	}
	return DefaultMaxEvents
}

// event is one node of the happens-before graph. Node 0 is the init
// pseudo-write (it writes every location's initial value); real events
// carry the (proc, index) identity the result's observations use.
type event struct {
	proc, index int
	kind        mem.Kind
	addr        mem.Addr
	data        mem.Value // write-component value
	got         mem.Value // read-component value (from the observation)
}

func (e *event) reads() bool  { return e.kind.ReadsMemory() }
func (e *event) writes() bool { return e.kind.WritesMemory() }

// Decide runs the polynomial appears-SC procedure for res on p.
func Decide(p *program.Program, res mem.Result, cfg Config) Decision {
	events, d, ok := replay(p, res, cfg)
	if !ok {
		return d
	}
	s := newSaturator(p, res, events)
	if d, ok := s.saturate(cfg); !ok {
		return d
	}
	return s.witness()
}

// replay reconstructs the per-thread dynamic operation sequences the
// result dictates. It runs the ideal interpreter's semantics
// (program.ExecLocal and program.StoreValue, register zero-init, eager
// local execution, per-thread memory-op indices counting every memory
// operation) but reads return observed values instead of memory
// contents. ok is false when replay itself decided (or fell back); the
// Decision is then meaningful.
func replay(p *program.Program, res mem.Result, cfg Config) ([]event, Decision, bool) {
	events := make([]event, 1, 16) // slot 0 = init pseudo-write
	events[0] = event{proc: mem.InitProc, kind: mem.Write}
	consumed := 0
	for tid := range p.Threads {
		instrs := p.Threads[tid].Instrs
		var regs program.RegFile
		// steps counts every instruction the thread executes, memory
		// operations included, and falls back once it passes
		// program.MaxLocalSteps: a bound on the thread's whole replay.
		pc, nextIx, steps := 0, 0, 0
		for {
			steps++
			if steps > program.MaxLocalSteps {
				return nil, Decision{Verdict: Fallback, Reason: ReasonReplayBudget}, false
			}
			if cfg.Cancel != nil && steps&cancelPollMask == 0 && cfg.Cancel() {
				return nil, Decision{Verdict: Fallback, Reason: ReasonCanceled}, false
			}
			if pc < 0 || pc >= len(instrs) {
				break // ran off the end: halt
			}
			in := instrs[pc]
			if !in.Op.IsMemory() {
				var halted bool
				pc, halted = program.ExecLocal(&regs, in, pc)
				if halted {
					break
				}
				continue
			}
			if len(events) >= cfg.maxEvents() {
				return nil, Decision{Verdict: Fallback, Reason: ReasonTooLarge}, false
			}
			ev := event{proc: tid, index: nextIx, kind: in.Op.MemKind(), addr: in.Addr}
			nextIx++
			if ev.reads() {
				obs, ok := res.Reads[mem.OpID{Proc: tid, Index: ev.index}]
				if !ok || obs.Addr != in.Addr {
					return nil, Decision{Verdict: Rejected, Reason: ReasonReplay}, false
				}
				consumed++
				ev.got = obs.Value
			}
			if ev.writes() {
				// Store value before the read component updates Rd, as in
				// the interpreter: swap rN, x, rN writes rN's pre-swap
				// contents.
				ev.data = program.StoreValue(in, &regs)
			}
			if ev.reads() {
				regs[in.Rd] = ev.got
			}
			events = append(events, ev)
			pc++
		}
	}
	if consumed != len(res.Reads) {
		// Leftover observations name operations no execution of this
		// program performs (wrong thread, or an index past the replayed
		// thread's halt): no SC execution matches.
		return nil, Decision{Verdict: Rejected, Reason: ReasonReplay}, false
	}
	return events, Decision{}, true
}

// saturator holds the event graph and its incremental transitive
// closure. reach[i] is i's strict descendant set, pred[i] its strict
// ancestor set; both are maintained exactly on every edge insertion, so
// "u happens-before v in every witness" is reach[u].Has(v) at all times.
type saturator struct {
	p      *program.Program
	res    mem.Result
	events []event

	reach, pred []*bitset.Set
	scratchA    *bitset.Set // ancestor side of an edge insertion
	scratchD    *bitset.Set // descendant side

	writes map[mem.Addr][]int // same-location write events, node 0 included
	reads  []int              // events with a read component

	// cand[r] is read r's remaining writer candidates; rf[r] is the
	// resolved writer (-1 while ambiguous). saturated[r] marks that r's
	// coherence/from-read rules have been fully applied for the current
	// closure — cleared whenever the closure grows.
	cand map[int][]int
	rf   []int

	cycle bool
}

func newSaturator(p *program.Program, res mem.Result, events []event) *saturator {
	n := len(events)
	s := &saturator{
		p:        p,
		res:      res,
		events:   events,
		reach:    make([]*bitset.Set, n),
		pred:     make([]*bitset.Set, n),
		scratchA: bitset.New(n),
		scratchD: bitset.New(n),
		writes:   make(map[mem.Addr][]int),
		cand:     make(map[int][]int),
		rf:       make([]int, n),
	}
	for i := range s.reach {
		s.reach[i] = bitset.New(n)
		s.pred[i] = bitset.New(n)
		s.rf[i] = -1
	}
	// Program order: init precedes every thread's first event; events of
	// one thread chain in index order (events are appended per thread,
	// so "previous event of the same proc" is the last one seen).
	last := map[int]int{}
	for i := 1; i < n; i++ {
		ev := &s.events[i]
		prev, ok := last[ev.proc]
		if !ok {
			prev = 0
		}
		s.addEdge(prev, i)
		last[ev.proc] = i
		if ev.writes() {
			s.writes[ev.addr] = append(s.writes[ev.addr], i)
		}
		if ev.reads() {
			s.reads = append(s.reads, i)
		}
	}
	for a := range s.writes {
		s.writes[a] = append([]int{0}, s.writes[a]...)
	}
	return s
}

// initVal is the initial (pseudo-write) value of a location.
func (s *saturator) initVal(a mem.Addr) mem.Value { return s.p.Init[a] }

// dataAt is the value write event w deposits into location a.
func (s *saturator) dataAt(w int, a mem.Addr) mem.Value {
	if w == 0 {
		return s.initVal(a)
	}
	return s.events[w].data
}

// finalVal is the observed final value of a location (absent = 0, per
// mem.Result.Equal).
func (s *saturator) finalVal(a mem.Addr) mem.Value { return s.res.Final[a] }

// addEdge inserts u -> v and updates the closure; it records a cycle in
// s.cycle (u == v, or v already reaches u) instead of inserting one.
func (s *saturator) addEdge(u, v int) {
	if u == v || s.reach[v].Has(u) {
		s.cycle = true
		return
	}
	if s.reach[u].Has(v) {
		return
	}
	// A = ancestors(u) ∪ {u}, D = descendants(v) ∪ {v}; every a ∈ A now
	// reaches every d ∈ D.
	s.scratchA.CopyFrom(s.pred[u])
	s.scratchA.Add(u)
	s.scratchD.CopyFrom(s.reach[v])
	s.scratchD.Add(v)
	s.scratchA.ForEach(func(a int) bool {
		s.reach[a].UnionWith(s.scratchD)
		return true
	})
	s.scratchD.ForEach(func(d int) bool {
		s.pred[d].UnionWith(s.scratchA)
		return true
	})
}

// saturate derives writer candidates and runs the fixpoint. ok is false
// when the procedure decided (or fell back) before the witness stage.
func (s *saturator) saturate(cfg Config) (Decision, bool) {
	fail := func(verdict Verdict, reason string) (Decision, bool) {
		return Decision{Verdict: verdict, Reason: reason, Events: len(s.events)}, false
	}
	// Locations no write touches keep their initial value; an observed
	// final disagreeing with it (or naming a location the program never
	// writes) is unreachable by any execution.
	for a, v := range s.res.Final {
		if len(s.writes[a]) == 0 && v != s.initVal(a) {
			return fail(Rejected, ReasonFinal)
		}
	}
	// Writer candidates: same-location writes supplying the observed
	// value. An RMW cannot read from its own write (its read component
	// sees the pre-state), so w == r is excluded.
	for _, r := range s.reads {
		ev := &s.events[r]
		var cs []int
		// writes[addr] includes node 0 whenever the location is ever
		// written; for a read-only location the init pseudo-write is its
		// only possible writer.
		ws := s.writes[ev.addr]
		if len(ws) == 0 {
			ws = []int{0}
		}
		for _, w := range ws {
			if w != r && s.dataAt(w, ev.addr) == ev.got {
				cs = append(cs, w)
			}
		}
		if len(cs) == 0 {
			return fail(Rejected, ReasonNoWriter)
		}
		s.cand[r] = cs
	}
	// Fixpoint: apply the final-state constraint, prune candidates, fix
	// unique writers and their closure rules until nothing changes. Every
	// round only adds necessary edges, so the loop is monotone and
	// terminates (the closure and the candidate sets are both bounded).
	applied := make([]bool, len(s.events)) // rf rules fully applied under current closure
	for {
		if cfg.Cancel != nil && cfg.Cancel() {
			return fail(Fallback, ReasonCanceled)
		}
		changed := false
		// Final-state constraint: prune coherence-last candidates to
		// writes that (a) supply the observed final value and (b) are not
		// known to precede another same-location write. A unique survivor
		// must be last: every other write precedes it.
		for a, ws := range s.writes {
			fv := s.finalVal(a)
			lastCands := 0
			lastW := -1
			for _, w := range ws {
				if s.dataAt(w, a) != fv {
					continue
				}
				preceded := false
				for _, w2 := range ws {
					if w2 != w && s.reach[w].Has(w2) {
						preceded = true
						break
					}
				}
				if !preceded {
					lastCands++
					lastW = w
				}
			}
			if lastCands == 0 {
				return fail(Rejected, ReasonFinal)
			}
			if lastCands == 1 {
				for _, w := range ws {
					if w != lastW && !s.reach[w].Has(lastW) {
						s.addEdge(w, lastW)
						changed = true
					}
				}
			}
		}
		if s.cycle {
			return fail(Rejected, ReasonCycle)
		}
		// Candidate pruning + unique-writer resolution.
		for _, r := range s.reads {
			ev := &s.events[r]
			if s.rf[r] >= 0 {
				if !applied[r] {
					changed = s.applyRFRules(r, s.rf[r], ev.addr) || changed
					applied[r] = true
				}
				continue
			}
			cs := s.cand[r][:0]
			for _, w := range s.cand[r] {
				if s.excluded(r, w, ev.addr) {
					changed = true
					continue
				}
				cs = append(cs, w)
			}
			s.cand[r] = cs
			switch len(cs) {
			case 0:
				return fail(Rejected, ReasonNoWriter)
			case 1:
				w := cs[0]
				s.rf[r] = w
				s.addEdge(w, r)
				s.applyRFRules(r, w, ev.addr)
				applied[r] = true
				changed = true
			}
		}
		if s.cycle {
			return fail(Rejected, ReasonCycle)
		}
		if !changed {
			break
		}
		// The closure may have grown; re-run every resolved read's rules
		// next round until they add nothing.
		for i := range applied {
			applied[i] = false
		}
	}
	return Decision{}, true
}

// excluded reports whether w is soundly impossible as r's writer: the
// read already precedes w, or another same-location write is known to
// fall strictly between w and r.
func (s *saturator) excluded(r, w int, a mem.Addr) bool {
	if s.reach[r].Has(w) {
		return true
	}
	for _, w2 := range s.writes[a] {
		if w2 != w && w2 != r && s.reach[w].Has(w2) && s.reach[w2].Has(r) {
			return true
		}
	}
	return false
}

// applyRFRules adds the coherence (w2 hb r ⟹ w2 co-before w) and
// from-read (w co-before w2 ⟹ r before w2) edges for a resolved
// reads-from pair; it reports whether the closure grew.
func (s *saturator) applyRFRules(r, w int, a mem.Addr) bool {
	changed := false
	for _, w2 := range s.writes[a] {
		if w2 == w || w2 == r {
			continue
		}
		if s.reach[w2].Has(r) && !s.reach[w2].Has(w) {
			s.addEdge(w2, w)
			changed = true
		}
		if s.reach[w].Has(w2) && !s.reach[r].Has(w2) {
			s.addEdge(r, w2)
			changed = true
		}
	}
	return changed
}

// witness finishes a saturation that found no contradiction: it demands
// full resolution (every read has one writer, every same-location write
// pair is ordered), builds the smallest-id-first topological order, and
// replays it on an SC memory against every observation and the final
// state. Anything unresolved — or a witness that fails verification —
// falls back to enumeration.
func (s *saturator) witness() Decision {
	fail := func(verdict Verdict, reason string) Decision {
		return Decision{Verdict: verdict, Reason: reason, Events: len(s.events)}
	}
	for _, r := range s.reads {
		if s.rf[r] < 0 {
			return fail(Fallback, ReasonAmbiguousRF)
		}
	}
	for _, ws := range s.writes {
		for i, w1 := range ws {
			for _, w2 := range ws[i+1:] {
				if !s.reach[w1].Has(w2) && !s.reach[w2].Has(w1) {
					return fail(Fallback, ReasonCoIncomplete)
				}
			}
		}
	}
	// Deterministic Kahn topological sort, smallest id first.
	n := len(s.events)
	indeg := make([]int, n)
	for v := 1; v < n; v++ {
		// In-degree over the closure's immediate information: count
		// ancestors. (Using full ancestor counts keeps the order a valid
		// linear extension: a node is emitted only after every ancestor.)
		indeg[v] = s.pred[v].Count()
	}
	heap := &intHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			heap.push(v)
		}
	}
	order := make([]int, 0, n)
	for heap.len() > 0 {
		u := heap.pop()
		order = append(order, u)
		s.reach[u].ForEach(func(v int) bool {
			indeg[v]--
			if indeg[v] == 0 {
				heap.push(v)
			}
			return true
		})
	}
	if len(order) != n {
		return fail(Rejected, ReasonCycle) // unreachable: closure is acyclic here
	}
	// Replay the order on an SC memory.
	memory := make(map[mem.Addr]mem.Value, len(s.p.Init))
	for a, v := range s.p.Init {
		memory[a] = v
	}
	for _, u := range order {
		if u == 0 {
			continue // init values are pre-loaded
		}
		ev := &s.events[u]
		if ev.reads() && memory[ev.addr] != ev.got {
			return fail(Fallback, ReasonWitness)
		}
		if ev.writes() {
			memory[ev.addr] = ev.data
		}
	}
	// Final state must match over the union of touched locations
	// (absent = 0 on either side).
	for a, v := range memory {
		if s.res.Final[a] != v {
			return fail(Fallback, ReasonWitness)
		}
	}
	for a, v := range s.res.Final {
		if memory[a] != v {
			return fail(Fallback, ReasonWitness)
		}
	}
	return Decision{Verdict: Accepted, Events: n}
}

// intHeap is a tiny min-heap of event ids (the witness's tie-break
// structure; container/heap's interface boxing is avoidable here).
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return v
}
