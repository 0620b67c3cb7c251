// Package simtest checks the simulator against properties that hold for
// any correct run, independent of the committed golden numbers.
//
// A Build function constructs a fresh simulator for one trial. Run
// executes it and returns the Result, the full stats-registry snapshot and
// optionally the complete trace event stream. Package tests use it in three
// ways: determinism (two runs of the same configuration are byte-identical
// in stats and trace), worker invariance (copies of a run executing at once
// on the internal/parallel cell pool, sharing cached workloads as sweep
// cells do, each match a lone run byte for byte) and conservation
// (counters that different parts of the model keep must agree — every
// access is a hit or a miss, every placed thread block and issued
// instruction is counted once, a walk only follows a TLB miss). The stock
// configurations cover the solo scheduler/sampling variants, every Table II
// benchmark, the translation mechanisms, multi-tenant co-runs and the churn
// controller.
package simtest
