package main

import (
	"fmt"

	"weakorder/internal/cache"
	"weakorder/internal/check"
	"weakorder/internal/drf"
	"weakorder/internal/gen"
	"weakorder/internal/ideal"
	"weakorder/internal/machine"
	"weakorder/internal/policy"
	"weakorder/internal/program"
)

// workload is one campaign shape the benchmark runs. Its inputs are a
// pure function of the seed: check.Run derives every program and
// machine seed from CampaignConfig.Seed.
type workload struct {
	name string
	// programs is the campaign size of one timed repetition.
	programs int
	// seededBug arms check.CorruptReadFault on WO-Def2.
	seededBug bool
	config    func(c *check.CampaignConfig)
}

// Timed campaigns run on one worker, in a process limited to one P
// (GOMAXPROCS): on a host of two or so shared cores, a second worker or
// a second P makes wall time measure the scheduler. With two Ps and one
// worker, wall time exceeded CPU time by 5-30%, waiting for the other
// core; with one P the two are equal. The
// reference campaign of a traced run runs on crossWorkers, with every
// core, so the rounds check that the summary does not depend on the
// worker count and the striped oracle cache is shared between workers.
const (
	timedWorkers = 1
	crossWorkers = 2
)

var workloads = []workload{
	{
		// The reference campaign: every policy on bus and network,
		// oracle-heavy.
		name: "ref-campaign", programs: 400,
		config: func(c *check.CampaignConfig) {
			c.Policies = policy.All()
			c.Topologies = []machine.Topology{machine.TopoBus, machine.TopoNetwork}
		},
	},
	{
		// The same generators on a 256-processor mesh with the
		// limited-pointer directory: simulator-heavy.
		name: "big-machine", programs: 150,
		config: func(c *check.CampaignConfig) {
			c.Policies = []policy.Kind{policy.WODef2, policy.SC}
			c.Topologies = []machine.Topology{machine.TopoMesh}
			c.Procs = 256
			c.DirMode = cache.DirLimitedPtr
		},
	},
	{
		// The default matrix with every WO-Def2 read corrupted: every
		// WO-Def2 run of a DRF program is a violation the shrinker
		// minimizes, so shrinking dominates.
		name: "seeded-bug", programs: 16, seededBug: true,
		config: func(c *check.CampaignConfig) {
			c.Policies = policy.All()
			c.Topologies = []machine.Topology{machine.TopoBus, machine.TopoNetwork}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fault is the workload's test fault hook (nil when fault-free).
func (w workload) fault() check.FaultHook {
	if w.seededBug {
		return check.CorruptReadFault(policy.WODef2)
	}
	return nil
}

// campaign returns the campaign configuration for one run of the
// workload with the given program count and worker count.
func (w workload) campaign(seed int64, programs, workers int) check.CampaignConfig {
	c := check.CampaignConfig{
		Seed:           seed,
		Programs:       programs,
		SeedsPerConfig: seedsPerConfig,
		Workers:        workers,
		MaxShrinkTries: maxShrinkTries,
		Fault:          w.fault(),
	}
	w.config(&c)
	return c
}

// matrix is the workload's config matrix as check.Run builds it.
func (w workload) matrix(c check.CampaignConfig) []machine.Config {
	m := check.Matrix(c.Policies, c.Topologies)
	for i := range m {
		if m[i].Caches {
			m[i].DirMode = c.DirMode
		}
	}
	return m
}

// The constants and the generator catalog below mirror internal/check
// (check.go and worker.go), where they are unexported. The traced
// replay needs them to regenerate the exact programs and oracle budgets
// of check.Run; the replay agreement check fails the traced run if the
// two ever drift apart.
const (
	seedsPerConfig        = 2
	maxShrinkTries        = 400
	oracleMemOpsPerThread = 16
	oracleEnumMaxPaths    = 200_000
	oracleMatchMaxStates  = 300_000
	drfCheckMaxPaths      = 100_000
	shrinkMaxCycles       = 200_000
	satMaxEvents          = 2048
	genStream             = 0x67656e // "gen"
	machineStream         = 0x5eed5
)

// drfConfig is the campaign's bounded DRF0 classification budget.
func drfConfig() drf.CheckConfig {
	return drf.CheckConfig{Enum: ideal.EnumConfig{
		Interp:            ideal.Config{MaxMemOpsPerThread: oracleMemOpsPerThread},
		SkipTruncated:     true,
		MaxPaths:          drfCheckMaxPaths,
		Reduce:            true,
		PreserveSyncOrder: true,
	}}
}

// oracleEnumConfig is the campaign's SC outcome-set enumeration budget.
func oracleEnumConfig() ideal.EnumConfig {
	return ideal.EnumConfig{
		Interp:        ideal.Config{MaxMemOpsPerThread: oracleMemOpsPerThread},
		SkipTruncated: true,
		MaxPaths:      oracleEnumMaxPaths,
		Reduce:        true,
	}
}

type genSpec struct {
	name  string
	class string // check.ClassDRF by construction, "" to classify
	make  func(seed int64) *program.Program
}

var catalog = []genSpec{
	{"racefree", check.ClassDRF, func(s int64) *program.Program {
		return gen.RaceFree(gen.RaceFreeConfig{
			Procs: 2, Locks: 1, SharedPerLock: 2, PrivatePerProc: 1,
			Sections: 1, OpsPerSection: 2, PrivateOps: 1,
		}, s)
	}},
	{"racefree-ttas", check.ClassDRF, func(s int64) *program.Program {
		return gen.RaceFree(gen.RaceFreeConfig{
			Procs: 2, Locks: 1, SharedPerLock: 1, PrivatePerProc: 1,
			Sections: 1, OpsPerSection: 1, PrivateOps: 1, TTAS: true,
		}, s)
	}},
	{"handoff", check.ClassDRF, func(s int64) *program.Program {
		return gen.Handoff(gen.HandoffConfig{Stages: 2, Items: 2, Work: 1}, s)
	}},
	{"racy", "", func(s int64) *program.Program {
		return gen.Racy(gen.RacyConfig{Procs: 2, Vars: 3, OpsPerProc: 5, SyncFraction: 4}, s)
	}},
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func deriveSeed(campaign int64, parts ...uint64) int64 {
	x := mix64(uint64(campaign))
	for _, p := range parts {
		x = mix64(x ^ p)
	}
	return int64(x >> 1)
}
