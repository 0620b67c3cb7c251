// Package control implements the closed-loop online partitioning
// controller of the multi-tenant simulator: a periodic feedback loop that
// samples per-tenant translation metrics at fixed cycle intervals and
// repartitions the machine — L2 TLB set ownership and SM assignment — to
// maximize a configurable objective (weighted speedup,
// fairness, or max-min progress).
//
// The package is deliberately a leaf: it knows nothing about the simulator,
// the TLB, or the scheduler. The simulator feeds it Samples (plain counter
// snapshots per machine slot) and applies the Assignment it returns. Two
// kinds of decisions exist:
//
//   - Periodic decisions (ReasonEpoch) fire at fixed cycle multiples and
//     difference the counters against the previous periodic sample. Only
//     these run the hill-climbing step.
//   - Churn decisions (ReasonArrival, ReasonDeparture) fire whenever a
//     tenant arrives or departs. They ignore the sample counters entirely
//     and perform only the rebalance step, which is a pure function of the
//     active-slot set: redistribute the whole machine equally over the
//     active slots.
//
// Hill-climbing moves one resource chunk per decision at most (MaxSetMoves
// and MaxSMMoves bound it), requires the receiver's pressure to exceed the
// donor's by MinGain (hysteresis), and then rests for Cooldown periodic
// decisions, so the partition cannot oscillate. A Frozen controller never
// changes the initial assignment — the degenerate case that must reproduce
// the static-partition numbers exactly.
package control
