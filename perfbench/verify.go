package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"weakorder/internal/check"
	"weakorder/internal/drf"
	"weakorder/internal/hb"
	"weakorder/internal/ideal"
	"weakorder/internal/lang"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/scmatch"
)

// summarySHA fingerprints a summary's deterministic part (Summary.JSON
// excludes Perf). A change that only speeds the campaign up must leave
// it unchanged.
func summarySHA(s *check.Summary) (string, error) {
	b, err := s.JSON()
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// verify is the correctness gate of one campaign summary. It returns
// the number of programs that failed a check and a description of each
// failure. A failure that cannot be pinned to one program (the sims
// total, the seeded-bug catch count) fails every program.
func verify(w workload, cfg check.CampaignConfig, s *check.Summary) (failed int, problems []string) {
	bad := make(map[int]bool)
	all := false
	fail := func(prog int, format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
		if prog < 0 {
			all = true
		} else {
			bad[prog] = true
		}
	}

	configs := len(w.matrix(cfg))
	if s.Programs != cfg.Programs || s.Configs != configs {
		fail(-1, "summary covers %d programs × %d configs, want %d × %d", s.Programs, s.Configs, cfg.Programs, configs)
	}
	if want := cfg.Programs * configs * cfg.SeedsPerConfig; s.Sims != want {
		fail(-1, "sims = %d, want programs × configs × seeds = %d", s.Sims, want)
	}
	for _, sk := range s.Skips {
		fail(sk.ProgramIndex, "program %d: deadline skip in %s", sk.ProgramIndex, sk.Stage)
	}

	if !w.seededBug {
		// Watchdog deaths and worker panics are reported as violations
		// too, so this covers all three.
		for _, v := range s.Violations {
			fail(v.ProgramIndex, "program %d: %s violation on %s", v.ProgramIndex, v.Kind, v.Config.Policy)
		}
		return countFailed(bad, all, cfg.Programs), problems
	}

	// Seeded bug: every WO-Def2 run of a DRF program must be caught, and
	// nothing else may be reported.
	want := 0
	for _, row := range s.Coverage {
		if row.Policy == policy.WODef2.String() && row.Class == check.ClassDRF {
			want = row.Sims
		}
	}
	caught := 0
	for _, v := range s.Violations {
		if v.Kind != check.KindDefinition2 || v.Config.Policy != policy.WODef2.String() {
			fail(v.ProgramIndex, "program %d: unexpected %s violation on %s", v.ProgramIndex, v.Kind, v.Config.Policy)
			continue
		}
		caught++
		if err := replayReproducer(w, v); err != nil {
			fail(v.ProgramIndex, "program %d: reproducer: %v", v.ProgramIndex, err)
		}
	}
	if caught != want || want == 0 {
		fail(-1, "definition2 violations = %d, want the %d WO-Def2 runs of DRF programs", caught, want)
	}
	return countFailed(bad, all, cfg.Programs), problems
}

func countFailed(bad map[int]bool, all bool, programs int) int {
	if all {
		return programs
	}
	return len(bad)
}

// replayReproducer checks one shrunk Definition 2 reproducer: its litmus
// text must re-parse, the program must still obey DRF0, and replaying it
// on the recorded config and machine seed, with the workload's fault,
// must still give a result that does not appear sequentially consistent.
func replayReproducer(w workload, v check.ViolationReport) error {
	prog, err := lang.Parse(v.Litmus)
	if err != nil {
		return fmt.Errorf("litmus does not re-parse: %w", err)
	}
	dv, err := drf.Check(prog, hb.SyncAll, drfConfig())
	switch {
	case err != nil && !errors.Is(err, ideal.ErrBudget):
		return fmt.Errorf("DRF check: %w", err)
	case !dv.DRF:
		return fmt.Errorf("shrunk program is racy")
	}
	mcfg, err := v.Config.Machine()
	if err != nil {
		return err
	}
	mcfg.MaxCycles = shrinkMaxCycles
	res, err := machine.Run(prog, mcfg, v.MachineSeed)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if f := w.fault(); f != nil {
		f(mcfg, prog, res)
	}
	m, err := scmatch.Matches(prog, res.Result, scmatch.Config{MaxStates: oracleMatchMaxStates})
	if err != nil {
		return fmt.Errorf("replay oracle: %w", err)
	}
	if m.OK {
		return fmt.Errorf("replayed result appears SC: the violation no longer reproduces")
	}
	return nil
}
