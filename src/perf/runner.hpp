// Convenience runners binding circuit -> engine -> cost model -> report.
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "dist/options.hpp"
#include "machine/job.hpp"
#include "machine/machine.hpp"
#include "perf/report.hpp"

namespace qsv {

/// Prices `circuit` on `job` using the trace engine (no amplitude storage;
/// works at the paper's full 33-44 qubit scale). One rank per node.
[[nodiscard]] RunReport run_model(const Circuit& circuit,
                                  const MachineModel& machine,
                                  const JobConfig& job,
                                  const DistOptions& opts = {});

/// Prices the applied prefix [0, gates) of `circuit` on `job`, gate by gate
/// on the trace engine: the partial cost a deadline-cancelled run reports.
/// At gates == circuit.size() it prices what run_model prices.
[[nodiscard]] RunReport price_prefix(const Circuit& circuit,
                                     std::uint64_t gates,
                                     const MachineModel& machine,
                                     const JobConfig& job,
                                     const DistOptions& opts = {});

/// Runs `circuit` functionally on a small register (<= ~24 qubits) with the
/// same cost model attached, so correctness and cost can be checked on one
/// execution. Returns the report; amplitudes are discarded.
[[nodiscard]] RunReport run_functional_model(const Circuit& circuit,
                                             const MachineModel& machine,
                                             const JobConfig& job,
                                             const DistOptions& opts = {});

}  // namespace qsv
