package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"weakorder/internal/check"
	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/lang"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/policy"
	"weakorder/internal/program"
	"weakorder/internal/sat"
	"weakorder/internal/scmatch"
)

// layerCounts is the work each layer did in one replay. Every field is
// an exact count for a fixed campaign.
type layerCounts struct {
	genCalls       int
	drfCalls       int
	drfExecutions  int
	machineRuns    int
	simCycles      uint64
	procCycles     uint64 // Σ simulated cycles × processors
	keyCalls       int
	keyBytes       int
	satCalls       int
	idealSteps     int
	idealTruncated int
	scmatchCalls   int
	scmatchStates  int
	scmatchBudget  int
	violations     int
	shrinkTries    int
	instrsBefore   int
	instrsKept     int
}

// replayResult is what one replay observed, in the terms of
// check.Summary so the two can be compared.
type replayResult struct {
	sims       int
	byClass    map[string]int
	oracle     check.OracleStats
	violations []string // violationID of each, sorted
	counts     layerCounts
}

// violationID identifies a violation report for the agreement check.
func violationID(idx int, kind string, machineSeed int64, litmus string) string {
	return fmt.Sprintf("%d/%s/%d/%s", idx, kind, machineSeed, litmus)
}

// replay re-executes the per-program pipeline of check.Run for cfg,
// one program at a time, through the public functions of each layer:
// generate, classify (drf), then for every config and machine seed
// simulate (machine), key the result (mem), and decide appears-SC by
// the L1 memo, sat, the enumerated outcome set (ideal) or the directed
// search (scmatch), shrinking any violation. Each call is a span on t.
//
// The replay has no cross-program cache; campaigns share no canonical
// program (every program is distinct), so its oracle accounting still
// equals the campaign's, and agree checks that it does.
func replay(w workload, cfg check.CampaignConfig, t *tracer) (*replayResult, error) {
	matrix := w.matrix(cfg)
	fault := w.fault()
	pool := machine.NewPool()
	r := &replayResult{byClass: make(map[string]int)}
	c := &r.counts

	runMachine := func(p *program.Program, mcfg machine.Config, seed int64) (*machine.RunResult, error) {
		sp := t.begin(layerMachine)
		res, err := pool.RunPooled(p, mcfg, seed)
		t.end(sp)
		c.machineRuns++
		if err != nil {
			return nil, err
		}
		c.simCycles += res.Stats.Cycles
		c.procCycles += res.Stats.Cycles * uint64(len(res.Stats.Procs))
		if fault != nil {
			fault(mcfg, p, res)
		}
		return res, nil
	}
	key := func(res mem.Result) string {
		sp := t.begin(layerKey)
		k := res.Key()
		t.end(sp)
		c.keyCalls++
		c.keyBytes += len(k)
		return k
	}
	isDRF := func(p *program.Program) bool {
		sp := t.begin(layerDRF)
		v, err := drf.Check(p, hb.SyncAll, drfConfig())
		t.end(sp)
		c.drfCalls++
		c.drfExecutions += v.Executions
		return err == nil && v.DRF
	}
	search := func(p *program.Program, res mem.Result) (scmatch.Match, error) {
		sp := t.begin(layerScmatch)
		m, err := scmatch.Matches(p, res, scmatch.Config{MaxStates: oracleMatchMaxStates})
		t.end(sp)
		c.scmatchCalls++
		c.scmatchStates += m.States
		if errors.Is(err, scmatch.ErrBudget) {
			c.scmatchBudget++
		}
		return m, err
	}

	for idx := 0; idx < cfg.Programs; idx++ {
		t.prog = int32(idx)
		spec := catalog[idx%len(catalog)]
		genSeed := deriveSeed(cfg.Seed, uint64(idx), genStream)
		sp := t.begin(layerGen)
		prog := spec.make(genSeed)
		t.end(sp)
		c.genCalls++

		class := spec.class
		if class == "" {
			class = check.ClassRacy
			if isDRF(prog) {
				class = check.ClassDRF
			}
		}
		r.byClass[class]++

		// Per-program oracle state, as in check.Run: the L1 memo of
		// verdicts, the enumerated outcome set, and whether it is
		// complete.
		l1 := make(map[string]bool)
		var outcomes map[string]bool
		complete := false
		for cfgIdx, mcfg := range matrix {
			if extra := cfg.Procs - prog.NumThreads(); extra > 0 {
				mcfg.ExtraProcs = extra
			}
			for s := 0; s < cfg.SeedsPerConfig; s++ {
				machineSeed := deriveSeed(cfg.Seed, uint64(idx), uint64(cfgIdx), uint64(s), machineStream)
				res, err := runMachine(prog, mcfg, machineSeed)
				if err != nil {
					return nil, fmt.Errorf("program %d on %s: %w", idx, mcfg.Name(), err)
				}
				r.sims++
				r.oracle.Queries++
				k := key(res.Result)
				sc, hit := l1[k]
				switch {
				case hit:
					r.oracle.L1Hits++
				default:
					sp := t.begin(layerSat)
					d := sat.Decide(prog, res.Result, sat.Config{MaxEvents: satMaxEvents})
					t.end(sp)
					c.satCalls++
					if d.Verdict != sat.Fallback {
						r.oracle.SatDecided++
						sc = d.Verdict == sat.Accepted
						if sc {
							r.oracle.SatAccepted++
						} else {
							r.oracle.SatRejected++
						}
						break
					}
					r.oracle.SatFallbacks++
					if r.oracle.SatFallbackReasons == nil {
						r.oracle.SatFallbackReasons = make(map[string]int)
					}
					r.oracle.SatFallbackReasons[d.Reason]++
					if outcomes == nil {
						outcomes, complete = enumerate(prog, t, c, key)
						r.oracle.Enumerations++
						if !complete {
							r.oracle.Incomplete++
						}
					}
					switch {
					case outcomes[k]:
						sc = true
						r.oracle.EnumHits++
					case complete:
						sc = false
						r.oracle.EnumHits++
					default:
						m, err := search(prog, res.Result)
						r.oracle.Fallbacks++
						switch {
						case errors.Is(err, scmatch.ErrBudget):
							sc = true // conservatively SC, as in check.Run
							r.oracle.BudgetExceeded++
						case err != nil:
							return nil, fmt.Errorf("program %d: oracle: %w", idx, err)
						default:
							sc = m.OK
						}
					}
				}
				l1[k] = sc

				kind := violationKind(class, mcfg.Policy, sc)
				if kind == "" {
					continue
				}
				shrinkCfg := mcfg
				shrinkCfg.MaxCycles = shrinkMaxCycles
				pred := func(cand *program.Program) bool {
					c.shrinkTries++
					if kind == check.KindDefinition2 && !isDRF(cand) {
						return false
					}
					res, err := runMachine(cand, shrinkCfg, machineSeed)
					if err != nil {
						return false
					}
					m, err := search(cand, res.Result)
					return err == nil && !m.OK
				}
				sp := t.begin(layerShrink)
				shrunk, _ := check.Shrink(prog, pred, cfg.MaxShrinkTries)
				t.end(sp)
				c.violations++
				c.instrsBefore += instructions(prog)
				c.instrsKept += instructions(shrunk)
				r.violations = append(r.violations, violationID(idx, kind, machineSeed, lang.Format(shrunk)))
			}
		}
	}
	sort.Strings(r.violations)
	return r, nil
}

// enumerate collects the program's SC outcome set under the campaign's
// budget and reports whether it is complete.
func enumerate(p *program.Program, t *tracer, c *layerCounts, key func(mem.Result) string) (map[string]bool, bool) {
	outcomes := make(map[string]bool)
	sp := t.begin(layerIdeal)
	stats, err := ideal.Enumerate(p, oracleEnumConfig(), func(it *ideal.Interp) error {
		outcomes[key(mem.ResultOf(it.Execution()))] = true
		return nil
	})
	t.end(sp)
	c.idealSteps += stats.Steps
	c.idealTruncated += stats.Truncated
	return outcomes, err == nil && stats.Truncated == 0
}

// violationKind mirrors check.Run's verdict-to-violation mapping.
func violationKind(class string, pol policy.Kind, appearsSC bool) string {
	switch {
	case appearsSC:
		return ""
	case pol == policy.SC:
		return check.KindSCPolicy
	case class == check.ClassDRF && (pol == policy.WODef1 || pol == policy.WODef2 || pol == policy.WODef2RO):
		return check.KindDefinition2
	}
	return ""
}

func instructions(p *program.Program) int {
	n := 0
	for i := range p.Threads {
		n += len(p.Threads[i].Instrs)
	}
	return n
}

// agree reports every way the replay differs from the campaign summary
// it replays: sims, byClass, the violations, and the oracle accounting.
func agree(r *replayResult, s *check.Summary) []string {
	var diffs []string
	if r.sims != s.Sims {
		diffs = append(diffs, fmt.Sprintf("sims: replay %d, campaign %d", r.sims, s.Sims))
	}
	if fmt.Sprint(r.byClass) != fmt.Sprint(s.ByClass) {
		diffs = append(diffs, fmt.Sprintf("byClass: replay %v, campaign %v", r.byClass, s.ByClass))
	}
	var want []string
	for _, v := range s.Violations {
		want = append(want, violationID(v.ProgramIndex, v.Kind, v.MachineSeed, v.Litmus))
	}
	sort.Strings(want)
	if strings.Join(r.violations, "\x00") != strings.Join(want, "\x00") {
		diffs = append(diffs, fmt.Sprintf("violations: replay %d, campaign %d (or their reproducers differ)", len(r.violations), len(want)))
	}
	if got, want := fmt.Sprintf("%+v", r.oracle), fmt.Sprintf("%+v", s.Oracle); got != want {
		diffs = append(diffs, fmt.Sprintf("oracle: replay %s, campaign %s", got, want))
	}
	return diffs
}
