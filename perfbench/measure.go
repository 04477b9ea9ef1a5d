package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"weakorder/internal/check"
	"weakorder/internal/sat"
)

// setup_s is the median of at least minSetupRuns cold one-program
// campaigns, setupPerRepetition of them after each timed repetition so
// they sample the whole run rather than its first second. Each one
// checks a different program: its campaign seed derives from the run's
// seed and its index, so the median does not hang on one program.
const (
	minSetupRuns       = 30
	setupPerRepetition = 5
	setupStream        = 0x736574 // "set"
)

// sample is one timed campaign.
type sample struct {
	cpu, wall, allocMB float64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return ru
}

// cpuTime is the process's user+sys CPU time in seconds.
func cpuTime() float64 {
	ru := rusage()
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KB
}

// timedRun runs one campaign from a collected heap and measures its CPU,
// wall time and allocation.
func timedRun(cfg check.CampaignConfig) (*check.Summary, sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	s, err := check.Run(cfg)
	wall, c1 := time.Since(t0).Seconds(), cpuTime()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, sample{}, err
	}
	return s, sample{cpu: c1 - c0, wall: wall, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6}, nil
}

// tally counts the programs a run checked and those that failed a
// correctness check.
type tally struct {
	programs  int
	refSHA    string
	refFailed int
	attempted int
	// failed counts the failures of every campaign before the latest;
	// latest, those of the latest one.
	failed, latest int
	problems       []string
}

// reference runs the workload's campaign once on the given number of
// workers: it warms the process up, is checked by the correctness gate,
// and gives the summary every later campaign must reproduce byte for
// byte.
func reference(w workload, seed int64, workers int) (*tally, error) {
	cfg := w.campaign(seed, w.programs, workers)
	s, err := check.Run(cfg)
	if err != nil {
		return nil, err
	}
	sha, err := summarySHA(s)
	if err != nil {
		return nil, err
	}
	failed, problems := verify(w, cfg, s)
	fmt.Printf("summary_sha256 %s\n", sha)
	fmt.Printf("reference: %d programs, %d sims, %d violations, byClass %v\n", s.Programs, s.Sims, len(s.Violations), s.ByClass)
	return &tally{programs: w.programs, refSHA: sha, refFailed: failed,
		attempted: w.programs, latest: failed, problems: problems}, nil
}

// repeat accounts for one more campaign: it fails all its programs
// unless its summary is the reference's, whose failures it then shares.
func (t *tally) repeat(s *check.Summary) error {
	t.attempted += t.programs
	t.failed += t.latest
	t.latest = t.refFailed
	sha, err := summarySHA(s)
	if err != nil {
		return err
	}
	if sha != t.refSHA {
		t.fail(fmt.Sprintf("summary %s differs from the reference", sha))
	}
	return nil
}

// fail fails every program of the latest campaign.
func (t *tally) fail(problems ...string) {
	t.latest = t.programs
	t.problems = append(t.problems, problems...)
}

// endToEnd measures the workload's end-to-end metrics on untraced
// campaigns, repeated until the time is up.
func endToEnd(w workload, seed int64, seconds float64) (*result, error) {
	start := time.Now()
	runtime.GOMAXPROCS(timedWorkers)
	t, err := reference(w, seed, timedWorkers)
	if err != nil {
		return nil, err
	}
	cfg := w.campaign(seed, w.programs, timedWorkers)
	var cpu, rate, alloc, setup []float64
	for last := 0.0; len(cpu) == 0 || time.Since(start).Seconds()+last < seconds; {
		s, m, err := timedRun(cfg)
		if err != nil {
			return nil, err
		}
		if err := t.repeat(s); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "repetition %d: cpu %.3fs wall %.3fs alloc %.1fMB\n", len(cpu), m.cpu, m.wall, m.allocMB)
		last = m.wall
		k := float64(w.programs) / 1000
		cpu = append(cpu, m.cpu/k)
		rate = append(rate, float64(w.programs)/m.wall)
		alloc = append(alloc, m.allocMB/k)
		if setup, err = timeSetup(w, seed, setup, len(setup)+setupPerRepetition); err != nil {
			return nil, err
		}
	}
	if setup, err = timeSetup(w, seed, setup, minSetupRuns); err != nil {
		return nil, err
	}
	fmt.Printf("repetitions %d of %d programs on %d workers\n", len(cpu), w.programs, timedWorkers)
	return t.finish(map[string]metric{
		"cpu_s_per_kprog":    {median(cpu), "s"},
		"progs_per_s":        {median(rate), "1/s"},
		"alloc_mb_per_kprog": {median(alloc), "MB"},
		"max_rss_mb":         {maxRSSMB(), "MB"},
		"setup_s":            {median(setup), "s"},
	}), nil
}

// finish assembles the result and reports failures.
func (t *tally) finish(metrics map[string]metric) *result {
	for i, p := range t.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "FAIL: ... %d more\n", len(t.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	failed := t.failed + t.latest
	fmt.Printf("fail_frac %g (%d of %d programs)\n", float64(failed)/float64(t.attempted), failed, t.attempted)
	return &result{Correct: failed == 0, Attempted: t.attempted, Failed: failed, Metrics: metrics}
}

// timeSetup appends the wall times, in seconds, of cold one-program
// campaigns to times until it holds n. Each runs in a fresh process, on
// a seed of its own, and is timed from start to exit.
func timeSetup(w workload, seed int64, times []float64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Collect the last repetition's garbage first, so the collector does
	// not run beside the set-up process.
	runtime.GC()
	for len(times) < n {
		child := deriveSeed(seed, setupStream, uint64(len(times)))
		cmd := exec.Command(exe, "--setup-child", "--workload", w.name, "--seed", strconv.FormatInt(child, 10))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup campaign: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// runSetupChild is the body of one cold set-up process: a one-program
// campaign with the workload's configuration.
func runSetupChild(w workload, seed int64) error {
	runtime.GOMAXPROCS(timedWorkers)
	_, err := check.Run(w.campaign(seed, 1, timedWorkers))
	return err
}

// perLayer measures the per-layer metrics. Each round runs the untraced
// campaign, then replays it twice, once without and once with spans;
// both replays must agree with the campaign's summary.
func perLayer(w workload, seed int64, seconds float64, out string) (*result, error) {
	start := time.Now()
	tl, err := reference(w, seed, crossWorkers)
	if err != nil {
		return nil, err
	}
	cfg := w.campaign(seed, w.programs, timedWorkers)
	var campaignCPU, plainCPU, tracedCPU, layerSum []float64
	self := make(map[string][]float64)
	var s *check.Summary
	var last *replayResult
	var lastTrace *tracer
	k := float64(w.programs) / 1000
	for round := 0.0; len(campaignCPU) == 0 || time.Since(start).Seconds()+round < seconds; {
		roundStart := time.Now()
		var m sample
		if s, m, err = timedRun(cfg); err != nil {
			return nil, err
		}
		if err := tl.repeat(s); err != nil {
			return nil, err
		}
		campaignCPU = append(campaignCPU, m.cpu/k)

		var sum float64
		for _, on := range []bool{false, true} {
			t := newTracer(on)
			runtime.GC()
			c0 := cpuTime()
			r, err := replay(w, cfg, t)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			c := cpuTime() - c0
			if diffs := agree(r, s); len(diffs) > 0 {
				tl.fail(diffs...)
			}
			if !on {
				plainCPU = append(plainCPU, c)
				continue
			}
			tracedCPU = append(tracedCPU, c)
			times := t.selfTimes()
			for _, l := range layers {
				self[l] = append(self[l], times[l]/k)
				sum += times[l] / k
			}
			last, lastTrace = r, t
		}
		layerSum = append(layerSum, sum)
		round = time.Since(roundStart).Seconds()
	}
	fmt.Printf("rounds %d of %d programs on %d workers\n", len(campaignCPU), w.programs, timedWorkers)

	spans := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := lastTrace.write(spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(lastTrace.spans), spans)
	journalBytes, err := journalSize(cfg, out)
	if err != nil {
		return nil, err
	}

	c := last.counts
	o := s.Oracle
	ms := map[string]metric{
		"gen.calls":                {float64(c.genCalls), "count"},
		"drf.calls":                {float64(c.drfCalls), "count"},
		"drf.executions":           {float64(c.drfExecutions), "count"},
		"machine.runs":             {float64(c.machineRuns), "count"},
		"machine.sim_cycles":       {float64(c.simCycles), "count"},
		"machine.ns_per_proccycle": {ratio(median(self[layerMachine])*k*1e9, float64(c.procCycles)), "ns"},
		"mem.key.calls":            {float64(c.keyCalls), "count"},
		"mem.key.bytes_mean":       {ratio(float64(c.keyBytes), float64(c.keyCalls)), "B"},
		"sat.calls":                {float64(c.satCalls), "count"},
		"sat.decided_frac":         {ratio(float64(o.SatDecided), float64(c.satCalls)), "ratio"},
		"sat.rejected":             {float64(o.SatRejected), "count"},
		"ideal.enumerations":       {float64(o.Enumerations), "count"},
		"ideal.steps":              {float64(c.idealSteps), "count"},
		"ideal.truncated":          {float64(c.idealTruncated), "count"},
		"scmatch.calls":            {float64(c.scmatchCalls), "count"},
		"scmatch.states":           {float64(c.scmatchStates), "count"},
		"scmatch.budget_exceeded":  {float64(c.scmatchBudget), "count"},
		"shrink.violations":        {float64(c.violations), "count"},
		"shrink.tries":             {float64(c.shrinkTries), "count"},
		"shrink.instr_kept_frac":   {ratio(float64(c.instrsKept), float64(c.instrsBefore)), "ratio"},
		"oracle.queries":           {float64(o.Queries), "count"},
		"oracle.l1_hit_frac":       {ratio(float64(o.L1Hits), float64(o.Queries)), "ratio"},
		"oracle.sat_decided":       {float64(o.SatDecided), "count"},
		"oracle.enumerations":      {float64(o.Enumerations), "count"},
		"oracle.fallbacks":         {float64(o.Fallbacks), "count"},
		"oracle.budget_exceeded":   {float64(o.BudgetExceeded), "count"},
		"journal.bytes_per_prog":   {float64(journalBytes) / float64(w.programs), "B"},
		"check.residual_s":         {median(campaignCPU) - median(layerSum), "s/kprog"},
		"trace.overhead_frac":      {median(tracedCPU)/median(plainCPU) - 1, "ratio"},
	}
	for _, l := range layers {
		ms[l+".s"] = metric{median(self[l]), "s/kprog"}
	}
	for _, reason := range fallbackReasons {
		ms["sat.fallback."+reason] = metric{float64(o.SatFallbackReasons[reason]), "count"}
	}
	return tl.finish(ms), nil
}

// fallbackReasons are every reason sat.Decide gives for a fallback.
var fallbackReasons = []string{
	sat.ReasonAmbiguousRF, sat.ReasonCoIncomplete, sat.ReasonTooLarge,
	sat.ReasonReplayBudget, sat.ReasonCanceled, sat.ReasonWitness,
}

// journalSize runs the campaign once with a journal in a scratch
// directory under out and returns the journal's size in bytes.
func journalSize(cfg check.CampaignConfig, out string) (int64, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(out, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg.Journal = filepath.Join(dir, "campaign.journal")
	if _, err := check.Run(cfg); err != nil {
		return 0, err
	}
	fi, err := os.Stat(cfg.Journal)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
