package sim

import "react/internal/mcu"

// Probe observes a run's device-level events as they happen: state
// transitions, checkpoint traffic, buffer reconfigurations, dead-time
// fast-forward parks, and cell retirement. It is the hook behind the
// timeline recorder (internal/obs.SimTimeline) and is opt-in per cell via
// Config.Probe.
//
// Contract:
//
//   - Every timestamp is simulation time derived from tick arithmetic
//     (float64(tick)*dt), never the wall clock — a probe must keep
//     recorded timelines bit-identical across runs (the reactlint
//     determinism contract covers implementations living under sim/).
//   - Callbacks run synchronously on the simulation goroutine, once per
//     observed change, in tick order per cell. A probe must not call back
//     into the engine or retain the device/buffer it is shown.
//   - The cell argument is Config.ProbeCell, so callers that split one
//     logical run across several batches can keep global cell identities.
//   - The nil-probe path is allocation-free and costs only a handful of
//     predictable branches per cell-tick (the allocation half is pinned by
//     TestNilProbeAllocsIndependentOfLength: Run and RunBatch allocate the
//     same at every run length).
type Probe interface {
	// DeviceState reports that the cell's device left state from for state
	// to during the tick ending at sim time t. Transitions that begin and
	// end inside one tick (e.g. a zero-duration backup burst collapsing
	// On->Backing->Off into On->Off) are reported as the net transition;
	// Checkpoint still accounts the burst itself.
	DeviceState(cell int, t float64, from, to mcu.State)
	// Checkpoint reports completed checkpoint bursts: backups and restores
	// are the number of each that finished during the tick ending at t.
	Checkpoint(cell int, t float64, backups, restores int)
	// BufferReconfig reports that the buffer's equivalent capacitance
	// changed to c farads during the tick ending at sim time t — for the
	// REACT buffer, a reconfiguration of the capacitor bank.
	BufferReconfig(cell int, t float64, c float64)
	// FastForward reports a dead-time park: sim time [fromT, toT) was
	// proven inert for this cell and skipped without stepping. Only the
	// batched executor emits these; RunReference steps every tick.
	FastForward(cell int, fromT, toT float64)
	// Retire reports that the cell finished its run at sim time t.
	Retire(cell int, t float64)
}
