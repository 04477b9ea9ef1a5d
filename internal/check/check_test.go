package check

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"

	"weakorder/internal/faults"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

// smallCampaign is the shared fast configuration: one machine seed per
// config, a reduced matrix, enough programs to cover every generator
// class.
func smallCampaign(seed int64) CampaignConfig {
	return CampaignConfig{
		Seed:           seed,
		Programs:       8,
		SeedsPerConfig: 1,
	}
}

// Pinned Summary.JSON digests: a change to the oracle's machinery that
// keeps verdicts and accounting must leave these bytes alone. Update a
// constant only for a deliberate change to what a summary reports.
const (
	deterministicSummarySHA256 = "00ee3f18c6a5b25339fd5df6af83ff3b3b1264875205123ece67e9e24ed06cdb"
	faultSummarySHA256         = "81b8ae5960d00d06bced2088bd98ea8155417a4d153815a1e0acab9480265a79"
)

// checkSummaryDigest fails t unless the sha256 of s's JSON is want.
func checkSummaryDigest(t *testing.T, s *Summary, want string) {
	t.Helper()
	j, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(j)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("summary sha256 = %s, want %s:\n%s", got, want, j)
	}
}

func TestMatrixShape(t *testing.T) {
	m := Matrix(policy.All(), []machine.Topology{machine.TopoBus, machine.TopoNetwork})
	// Per topology: SC and Unconstrained run cached + uncached, the three
	// weakly ordered policies cached only.
	if want := 2 * (2*2 + 3); len(m) != want {
		t.Fatalf("matrix size %d, want %d", len(m), want)
	}
	for _, cfg := range m {
		if err := cfg.Validate(); err != nil {
			t.Errorf("matrix produced invalid config %s: %v", cfg.Name(), err)
		}
	}
}

// TestCampaignDeterministic runs the same campaign at different worker
// counts and demands byte-identical JSON summaries — the guarantee that
// makes campaign results reportable and reproducible.
func TestCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full campaigns; skipped in -short")
	}
	cfg := smallCampaign(1)
	cfg.Workers = 1
	s1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	s2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("summaries differ across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", j1, j2)
	}
	checkSummaryDigest(t, s1, deterministicSummarySHA256)
}

// TestCampaignCleanHasNoViolations pins the core contract on the real
// simulator: no configuration in the matrix violates its oracle.
func TestCampaignCleanHasNoViolations(t *testing.T) {
	s, err := Run(smallCampaign(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Violations {
		t.Errorf("unexpected %s violation: %s on %s (machine seed %d)\n%s",
			v.Kind, v.Program, configKey(v.Config), v.MachineSeed, v.Litmus)
	}
	if s.Sims != s.Programs*s.Configs*1 {
		t.Errorf("sims = %d, want %d", s.Sims, s.Programs*s.Configs)
	}
	if s.ByClass[ClassDRF] == 0 {
		t.Error("campaign generated no DRF programs")
	}
	if s.Oracle.Queries != s.Sims {
		t.Errorf("oracle queries = %d, want one per sim (%d)", s.Oracle.Queries, s.Sims)
	}
}

// TestCampaignCoversWeakBehavior checks the differential half: racy
// programs on weak policies do exhibit non-SC outcomes (otherwise the
// campaign isn't exercising anything the oracle could catch).
func TestCampaignCoversWeakBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("32-seed coverage campaign; skipped in -short")
	}
	cfg := CampaignConfig{
		Seed:           3,
		Programs:       16,
		SeedsPerConfig: 2,
		Policies:       []policy.Kind{policy.Unconstrained},
		Topologies:     []machine.Topology{machine.TopoNetwork},
	}
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nonSC := 0
	for _, row := range s.Coverage {
		nonSC += row.NonSC
	}
	if nonSC == 0 {
		t.Error("no non-SC outcome observed on Unconstrained/network — weak behavior coverage is dead")
	}
	// And never a violation: racy classes and Unconstrained are coverage
	// only.
	if len(s.Violations) != 0 {
		t.Errorf("unexpected violations on a coverage-only matrix: %d", len(s.Violations))
	}
}

// TestCampaignWithFaultsCleanAndDeterministic is the robustness
// acceptance check in miniature: with drop+dup+delay injected on every
// cached row, the hardened protocol still satisfies every oracle — no
// Definition 2 violations, no watchdog deaths — and the summary stays
// byte-identical across worker counts.
func TestCampaignWithFaultsCleanAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two faulted campaigns; skipped in -short")
	}
	plan := faults.Mild()
	cfg := CampaignConfig{
		Seed:           11,
		Programs:       6,
		SeedsPerConfig: 1,
		Policies:       []policy.Kind{policy.WODef2, policy.SC},
		Topologies:     []machine.Topology{machine.TopoNetwork},
		Faults:         &plan,
		Workers:        1,
	}
	s1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Violations) != 0 {
		for _, v := range s1.Violations {
			t.Errorf("violation under mild faults: %s %s on %s\n%s", v.Kind, v.Program, configKey(v.Config), v.Liveness)
		}
	}
	if s1.WatchdogDeaths != 0 {
		t.Errorf("%d watchdog deaths under mild faults with retry enabled", s1.WatchdogDeaths)
	}
	if s1.Faults == nil || !s1.Faults.Enabled() {
		t.Error("summary does not record the fault plan")
	}
	cfg.Workers = 4
	s2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.JSON()
	j2, _ := s2.JSON()
	if string(j1) != string(j2) {
		t.Fatalf("faulted summaries differ across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", j1, j2)
	}
}

// TestBrokenRetryYieldsLivenessReproducer drives the tentpole's failure
// pipeline: disabling retry under total drop wedges runs, and each wedge
// becomes a KindLiveness violation with a shrunk reproducer and a
// populated liveness report — instead of aborting the campaign.
func TestBrokenRetryYieldsLivenessReproducer(t *testing.T) {
	dir := t.TempDir()
	cfg := CampaignConfig{
		Seed:           5,
		Programs:       1, // index 0 is racefree (DRF by construction)
		SeedsPerConfig: 1,
		Policies:       []policy.Kind{policy.WODef2},
		Topologies:     []machine.Topology{machine.TopoNetwork},
		Faults:         &faults.Plan{Drop: 1, DisableRetry: true},
		CorpusDir:      dir,
		MaxShrinkTries: 40,
	}
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.WatchdogDeaths == 0 || len(s.Violations) == 0 {
		t.Fatalf("total drop without retry produced no watchdog deaths (%d) / violations (%d)",
			s.WatchdogDeaths, len(s.Violations))
	}
	for _, v := range s.Violations {
		if v.Kind != KindLiveness {
			t.Errorf("violation kind %q, want %q", v.Kind, KindLiveness)
		}
		if v.Liveness == "" {
			t.Error("liveness violation carries no report")
		} else if !strings.Contains(v.Liveness, "stalled") && !strings.Contains(v.Liveness, "pending") {
			t.Errorf("liveness report names no stalled processor or pending line:\n%s", v.Liveness)
		}
		if v.Outcome != "wedged" {
			t.Errorf("liveness outcome %q, want \"wedged\"", v.Outcome)
		}
		if v.Config.Faults == nil {
			t.Error("violation config does not record the fault plan for replay")
		}
		if v.Instructions > 6 {
			t.Errorf("shrunk liveness reproducer has %d instructions, want <= 6:\n%s", v.Instructions, v.Litmus)
		}
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(s.Violations) {
		t.Fatalf("corpus has %d entries, want %d", len(entries), len(s.Violations))
	}
	for _, e := range entries {
		if err := Replay(e, 1); err != nil {
			t.Errorf("replay: %v", err)
		}
	}
}

// TestFaultYieldsShrunkReproducer drives the acceptance criterion: a
// deliberately broken policy produces a violation whose shrunk
// reproducer is at most 6 instructions and replays from the corpus
// directory.
func TestFaultYieldsShrunkReproducer(t *testing.T) {
	dir := t.TempDir()
	cfg := CampaignConfig{
		Seed:           1,
		Programs:       2, // index 0 is racefree (DRF by construction)
		SeedsPerConfig: 1,
		Policies:       []policy.Kind{policy.WODef2},
		Topologies:     []machine.Topology{machine.TopoBus},
		CorpusDir:      dir,
		Fault:          CorruptReadFault(policy.WODef2),
	}
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Violations) == 0 {
		t.Fatal("fault hook produced no violation")
	}
	checkSummaryDigest(t, s, faultSummarySHA256)
	for _, v := range s.Violations {
		if v.Kind != KindDefinition2 {
			t.Errorf("violation kind %q, want %q", v.Kind, KindDefinition2)
		}
		if v.Instructions > 6 {
			t.Errorf("shrunk reproducer has %d instructions, want <= 6:\n%s", v.Instructions, v.Litmus)
		}
		if len(v.ShrinkSteps) == 0 {
			t.Error("no shrink steps recorded")
		}
	}
	// The corpus written during the campaign loads and replays clean
	// (replay runs without the fault hook, so the contract holds).
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(s.Violations) {
		t.Fatalf("corpus has %d entries, want %d", len(entries), len(s.Violations))
	}
	for _, e := range entries {
		if err := Replay(e, 2); err != nil {
			t.Errorf("replay: %v", err)
		}
	}
}

// TestCorpusReplay replays the committed corpus as a regression suite:
// each entry is a shrunk reproducer of a once-induced violation, and
// replaying it clean means the contract holds where it was once broken.
func TestCorpusReplay(t *testing.T) {
	entries, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("committed corpus is empty — regenerate with wofuzz -fault")
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if err := Replay(e, 3); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestShrinkRetargetsBranches checks the structural part of the shrinker
// on a synthetic predicate (no simulator involved): dropping an
// instruction before a branch must pull its target back.
func TestShrinkRetargetsBranches(t *testing.T) {
	b := program.NewBuilder("branchy")
	x := b.Var("x")
	th := b.Thread()
	th.LoadImm(program.R0, 1)       // 0: droppable
	th.BeqImm(program.R0, 7, "end") // 1: branch over the store
	th.StoreImm(x, 5)               // 2: the instruction pred protects
	th.Label("end")
	th.Nop() // 3: droppable
	p := b.MustBuild()

	keepsStore := func(cand *program.Program) bool {
		for _, t := range cand.Threads {
			for _, in := range t.Instrs {
				if in.Op == program.OpStore && in.Imm == 5 {
					return true
				}
			}
		}
		return false
	}
	shrunk, steps := Shrink(p, keepsStore, 200)
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunk program invalid: %v", err)
	}
	if !keepsStore(shrunk) {
		t.Fatal("shrinker lost the protected instruction")
	}
	if n := instructionCount(shrunk); n != 1 {
		t.Errorf("shrunk to %d instructions, want 1 (just the store); steps: %v", n, steps)
	}
}

// TestShrinkDemotesSync checks sync→data demotion with a predicate that
// only requires a load to x.
func TestShrinkDemotesSync(t *testing.T) {
	b := program.NewBuilder("syncy")
	x := b.Var("x")
	th := b.Thread()
	th.TAS(program.R0, x)
	p := b.MustBuild()

	hasLoadOrTAS := func(cand *program.Program) bool {
		for _, t := range cand.Threads {
			for _, in := range t.Instrs {
				if (in.Op == program.OpLoad || in.Op == program.OpTAS) && in.Addr == 0 {
					return true
				}
			}
		}
		return false
	}
	shrunk, _ := Shrink(p, hasLoadOrTAS, 100)
	if got := shrunk.Threads[0].Instrs[0].Op; got != program.OpLoad {
		t.Errorf("TAS not demoted: final op %v", got)
	}
}

// TestDeriveSeedStable pins the seed-derivation scheme: campaign replay
// depends on these exact values, so a change here invalidates every
// recorded report.
func TestDeriveSeedStable(t *testing.T) {
	golden := []struct {
		campaign int64
		parts    []uint64
		want     int64
	}{
		{1, []uint64{0, 0x67656e}, 6568687399120375203},
		{1, []uint64{1, 0x67656e}, 1661898854338584238},
		{7, []uint64{3}, 3879072848308665546},
		{12345, []uint64{6, 7, 8}, 5153405959393610571},
		{0, nil, 8147104208329303767},
		{1<<63 - 1, []uint64{42}, 5796509856435883469},
		{-5, []uint64{9}, 88573237949813488},
	}
	for _, g := range golden {
		if got := deriveSeed(g.campaign, g.parts...); got != g.want {
			t.Errorf("deriveSeed(%d, %v) = %d, want %d", g.campaign, g.parts, got, g.want)
		}
	}
	if a, b := deriveSeed(1, 0, 0x67656e), deriveSeed(1, 0, 0x67656e); a != b {
		t.Fatalf("deriveSeed not stable: %d != %d", a, b)
	}
	if a, b := deriveSeed(1, 0, 0x67656e), deriveSeed(1, 1, 0x67656e); a == b {
		t.Fatal("deriveSeed does not separate program indices")
	}
	if deriveSeed(12345, 6, 7, 8) < 0 {
		t.Fatal("deriveSeed must be non-negative")
	}
}
