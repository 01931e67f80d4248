package main

import (
	"fmt"
	"sort"

	"slacksim/internal/cache"
	"slacksim/internal/core"
	"slacksim/internal/cpu"
	"slacksim/internal/harness"
)

// scale is the workload input scale every cell runs at. Inputs are fixed
// by internal/workloads at this scale; the seed only orders the cells.
const scale = 1

// targetCores is the simulated CMP: the paper's 8-core target (§4.1).
const targetCores = 8

// cell is one simulation of a round: a workload under a scheme at a
// host-core budget, executed by a resolved driver.
type cell struct {
	Workload  string
	Scheme    core.Scheme
	HostCores int
	// Driver is the engine that runs the cell: fused, parallel or
	// sharded (RunFused / RunParallel), remote (RunRemoteShardedOpts
	// over loopback TCP workers), or serial (RunSerial, the reference).
	Driver string
	// Shards is the memory-hierarchy shard count (ManagerShards for
	// sharded cells, RemoteShards and loopback workers for remote cells);
	// 0 for single-manager cells.
	Shards int
}

// ID names the cell in spans, reports and failure messages.
func (c cell) ID() string {
	return fmt.Sprintf("%s/%v/h%d/%s", c.Workload, c.Scheme, c.HostCores, c.Driver)
}

// target is the machine configuration the cell simulates. Sharded and
// remote cells pin DRAMChannels to the shard count (core.Config does the
// same), so their serial reference is taken on that target.
func (c cell) target() core.Config {
	cfg := referenceTarget(c.Shards)
	switch c.Driver {
	case "sharded":
		cfg.ManagerShards = c.Shards
	case "remote":
		cfg.RemoteShards = c.Shards
	}
	return cfg
}

// reference is the serial-engine cell c is checked against. The serial
// engine steps every core cycle by cycle, so its scheme reads CC.
func (c cell) reference() cell {
	return cell{Workload: c.Workload, Scheme: core.SchemeCC, HostCores: 1, Driver: "serial", Shards: c.Shards}
}

// refKey identifies the serial reference a cell is checked against:
// identical target configuration means identical workload and DRAM
// channel count.
func (c cell) refKey() refKey { return refKey{c.Workload, max(c.Shards, 1)} }

type refKey struct {
	workload string
	channels int
}

// referenceTarget is the single-manager target with the given DRAM
// channel count, the configuration the serial engine runs.
func referenceTarget(channels int) core.Config {
	cfg := core.Config{
		NumCores:   targetCores,
		NumThreads: targetCores,
		Model:      core.ModelOoO,
		CPU:        cpu.DefaultConfig(),
		Cache:      cache.DefaultConfig(targetCores),
		MaxCycles:  10_000_000_000,
	}
	if channels > 1 {
		cfg.Cache.DRAMChannels = channels
	}
	return cfg
}

// autoDriver resolves the "auto" driver by the program's own rule, so a
// change to driver selection shows up here without editing the benchmark.
func autoDriver(hostCores int) string {
	opts := harness.Options{Driver: "auto"}
	return opts.DriverFor(hostCores)
}

// autoCells is the cross product of workloads and schemes at one host-core
// budget under the auto driver.
func autoCells(names []string, schemes []core.Scheme, hostCores int) []cell {
	var out []cell
	for _, w := range names {
		for _, s := range schemes {
			out = append(out, cell{Workload: w, Scheme: s, HostCores: hostCores, Driver: autoDriver(hostCores)})
		}
	}
	return out
}

var paperFour = []string{"barnes", "fft", "lu", "water"}

// benchWorkloads maps each benchmark workload to its cell set. README.md
// gives the reason for each choice.
var benchWorkloads = map[string][]cell{
	// Core-model stepping and set-up dominate; no fabric, no wire.
	"cc-h1": autoCells(paperFour, []core.Scheme{core.SchemeCC}, 1),
	// Conservative schemes on the goroutine fabric: wait-bound.
	"conservative-h2": autoCells([]string{"water", "fft"}, []core.Scheme{core.SchemeCC, core.SchemeS9x}, 2),
	// The paper's speedup case: wide and unbounded slack windows.
	"slack-h2": autoCells(paperFour, []core.Scheme{core.SchemeS100, core.SchemeSU}, 2),
	// The shard round over the wire and in-process.
	"shards-wire": {
		{Workload: "ocean", Scheme: core.SchemeQ10, HostCores: 2, Driver: "remote", Shards: 2},
		{Workload: "ocean", Scheme: core.SchemeQ10, HostCores: 2, Driver: "sharded", Shards: 2},
		{Workload: "ocean", Scheme: core.SchemeSU, HostCores: 2, Driver: "remote", Shards: 2},
		{Workload: "ocean", Scheme: core.SchemeSU, HostCores: 2, Driver: "sharded", Shards: 2},
	},
}

// workloadNames lists the benchmark workloads in a stable order.
func workloadNames() []string {
	var out []string
	for n := range benchWorkloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
