package check

import (
	"sync"
	"testing"

	"weakorder/internal/litmus"
	"weakorder/internal/metrics"
)

// TestAxiomVsOperationalOracles is the standing differential between the
// declarative axiomatic engine and the operational oracles: the litmus
// suite must agree exactly (no skips tolerated), and the generator mix
// used by TestOracleEquivalenceNaiveVsReduced must agree on every
// program both sides can afford, with an aggregate floor on how many
// comparisons actually completed.
func TestAxiomVsOperationalOracles(t *testing.T) {
	// A metrics.Registry is not safe for concurrent use, so the litmus
	// run and every parallel generator subtest count into their own.
	noDisagreement := func(t *testing.T, reg *metrics.Registry) {
		t.Helper()
		if got := reg.Snapshot().Counters["axiom.diff.disagree"]; got != 0 {
			t.Errorf("axiom.diff.disagree = %d, want 0", got)
		}
	}

	t.Run("litmus", func(t *testing.T) {
		reg := metrics.NewRegistry()
		for _, p := range litmus.All() {
			p := p
			t.Run(p.Name, func(t *testing.T) {
				res, err := AxiomDiff(p, AxiomDiffConfig{
					MemOpsPerThread: litmusDiffBudget(p.Name),
					Metrics:         reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Skipped {
					t.Fatalf("litmus comparison skipped: %s", res.SkipReason)
				}
				if !res.SCAgree {
					t.Errorf("SC outcome sets diverged: axiom-only %v, operational-only %v",
						res.AxiomOnly, res.OperOnly)
				}
				if !res.DRFAgree {
					t.Errorf("race verdicts diverged: axiomatic racy=%v, operational racy=%v",
						res.AxiomRacy, res.OperRacy)
				}
			})
		}
		noDisagreement(t, reg)
	})

	specs := generators()
	perSpec := 52 // 4 specs x 52 = 208 programs
	if testing.Short() {
		perSpec = 6
	}
	var (
		mu                       sync.Mutex
		progs, compared, skipped int
	)
	t.Run("generators", func(t *testing.T) {
		for si, spec := range specs {
			si, spec := si, spec
			t.Run(spec.name, func(t *testing.T) {
				t.Parallel()
				reg := metrics.NewRegistry()
				for s := 0; s < perSpec; s++ {
					p := spec.make(deriveSeed(0xd1ff, uint64(si), uint64(s)))
					res, err := AxiomDiff(p, AxiomDiffConfig{Metrics: reg})
					if err != nil {
						t.Fatalf("%s/%d: %v", spec.name, s, err)
					}
					mu.Lock()
					progs++
					if res.Skipped {
						skipped++
					} else {
						compared++
					}
					mu.Unlock()
					if res.Skipped {
						continue
					}
					if !res.SCAgree {
						t.Errorf("%s/%d: SC outcome sets diverged: axiom-only %v, operational-only %v",
							spec.name, s, res.AxiomOnly, res.OperOnly)
					}
					if !res.DRFAgree {
						t.Errorf("%s/%d: race verdicts diverged: axiomatic racy=%v, operational racy=%v",
							spec.name, s, res.AxiomRacy, res.OperRacy)
					}
				}
				noDisagreement(t, reg)
			})
		}
	})
	t.Logf("%d generator programs: %d compared, %d skipped (budget)", progs, compared, skipped)
	if !testing.Short() {
		if progs < 200 {
			t.Errorf("differential corpus too small: %d programs (want >= 200)", progs)
		}
		if compared*2 < progs {
			t.Errorf("too many skipped comparisons: %d of %d compared", compared, progs)
		}
	}
}
