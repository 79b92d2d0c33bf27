#pragma once

/// \file sim_reference.h
/// The scalar failure-run engine that sim::run_with_failures replaced.
/// test_sim_engine and bench_sim's bit-identity and events/sec gates
/// compare the event core's legacy path against it.

#include "sim/run_sim.h"

namespace lowdiff::sim {

/// The pre-rewrite scalar engine, kept verbatim as the bit-identity oracle
/// for the event core's legacy path.  One failure at a time, re-evaluating
/// the StrategyTimeline closed forms per call — do not use in sweeps.
FailureRunResult run_with_failures_reference(const ClusterSpec& cluster,
                                             const Workload& workload,
                                             const StrategyConfig& strategy,
                                             const FailureRunConfig& run);

}  // namespace lowdiff::sim
