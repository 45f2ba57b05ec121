package experiments

import (
	"fmt"
	"strings"

	"shootdown/internal/explore"
	"shootdown/internal/kernel"
)

// deviceScenarios is the device-chaos campaign: IOMMU/device-TLB fault
// kinds, alone and combined with processor fail-stop, against the
// DMA-streaming workload with the watchdog armed and the oracle shadowing
// every device TLB. The quarantine ladder must carry every run to a clean
// finish: a wedged device never wedges the shootdown, and no DMA ever
// lands through a translation the device acknowledged invalidating.
var deviceScenarios = []scenario{
	{"devstall", "devstall=0.6,devstallmax=6ms"},
	{"doorbell-drop", "devdrop=0.5"},
	{"wedge", "devwedge=0.25"},
	{"reorder+stall", "devreorder=0.6,devstall=0.3,devstallmax=4ms"},
	// The cross-layer scenario: a CPU fail-stops while a device is
	// stalled mid-shootdown, so the heterogeneous barrier loses a CPU
	// member and a device member in the same window.
	{"cpufail+devstall", "failstop=0.9,failby=8ms,revive=0.8,reviveafter=4ms,devstall=0.8,devstallmax=6ms"},
}

// DeviceChaosRun is one device scenario's outcome.
type DeviceChaosRun struct {
	campaignHead

	// Device-side shootdown counters: invalidations posted, and the
	// watchdog ladder's escalation tallies.
	DevShootdowns      uint64
	DevInvalsPosted    uint64
	DevTimeouts        uint64
	DevRerings         uint64
	DevResets          uint64
	DevQuarantines     uint64
	DevOfflineSkipped  uint64
	OracleDevUseChecks uint64
	OracleGraceUses    uint64

	campaignTail
}

// DeviceChaosResult is the whole device campaign.
type DeviceChaosResult struct {
	Seed    int64
	NCPUs   int
	Devices int
	Runs    []DeviceChaosRun
}

// Failures counts non-ok runs.
func (r DeviceChaosResult) Failures() int { return failures(r.Runs) }

// DeviceChaosOptions tunes the device campaign.
type DeviceChaosOptions struct {
	NCPUs   int // default 4
	Devices int // default 2
	// PlantBug enables the intentional stale-device-TLB bug
	// (machine.Options.SkipDevInval) in every run: devices acknowledge
	// invalidations without performing them, to demonstrate stale-DMA
	// detection and minimization end to end.
	PlantBug bool
	// Shrink runs delta debugging on failing schedules; MaxShrinkRuns
	// bounds the re-executions per failure (default 48).
	Shrink        bool
	MaxShrinkRuns int
	// ExtraSpec, when non-empty, is appended as a "custom" scenario (the
	// CLI's -devfaults flag).
	ExtraSpec string
	// WallClock, when set, is a millisecond clock injected by package
	// main (see ChaosOptions.WallClock).
	WallClock func() int64
}

// DeviceChaosCampaign runs every device-chaos scenario against the
// DMA-streaming workload (at half scale, hardened watchdog, oracle
// shadowing every device TLB). A failing run (which, with PlantBug, is
// the expected outcome) is delta-debugged down to a 1-minimal fault
// schedule and packaged as a replayable reproducer, exactly like the CPU
// campaign.
func DeviceChaosCampaign(seed int64, opt DeviceChaosOptions, ins ...Instrument) (DeviceChaosResult, error) {
	if opt.NCPUs == 0 {
		opt.NCPUs = 4
	}
	if opt.Devices == 0 {
		opt.Devices = 2
	}
	c := campaign{
		kind:      "device",
		scenarios: deviceScenarios,
		cell: explore.Cell{Seed: seed, NCPUs: opt.NCPUs, Workload: "dma", Devices: opt.Devices,
			DevBug: opt.PlantBug, Shootdown: campaignWatchdog},
		shrink:    opt.Shrink,
		maxShrink: opt.MaxShrinkRuns,
		wallClock: opt.WallClock,
	}
	if opt.ExtraSpec != "" {
		c.scenarios = append(append([]scenario{}, deviceScenarios...), scenario{"custom", opt.ExtraSpec})
	}
	runs, err := runCampaign(c, pick(ins), func(row *DeviceChaosRun, k *kernel.Kernel) {
		st := k.Shoot.Stats()
		row.DevShootdowns = st.DevShootdowns
		row.DevInvalsPosted = st.DevInvalsPosted
		row.DevTimeouts = st.DevCompletionTimeouts
		row.DevRerings = st.DevRerings
		row.DevResets = st.DevResets
		row.DevQuarantines = st.DevQuarantines
		row.DevOfflineSkipped = st.DevOfflineSkipped
		ost := k.Oracle.Stats()
		row.OracleDevUseChecks = ost.DevUseChecks
		row.OracleGraceUses = ost.DevGraceUses
	})
	return DeviceChaosResult{Seed: seed, NCPUs: opt.NCPUs, Devices: opt.Devices, Runs: runs}, err
}

// Render prints the device campaign.
func (r DeviceChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Device chaos campaign: IOMMU/device-TLB faults (%d-CPU DMA streams, %d devices, seed %d)\n",
		r.NCPUs, r.Devices, r.Seed)
	fmt.Fprintf(&b, "ladder: completion timeout %v -> re-ring (x%d) -> drain-and-reset -> quarantine\n\n",
		campaignWatchdog.WatchdogTimeout.Duration(), campaignWatchdog.WatchdogMaxRetries)
	renderCampaign(&b, r.Runs,
		[]string{"posted", "timeouts", "re-rings", "resets", "quarantines", "grace uses"},
		func(run *DeviceChaosRun) []any {
			return []any{run.DevInvalsPosted, run.DevTimeouts, run.DevRerings, run.DevResets, run.DevQuarantines, run.OracleGraceUses}
		},
		"every shootdown completed despite stalled, deaf, and wedged devices, and no DMA ever used an acknowledged-dead translation")
	return b.String()
}
