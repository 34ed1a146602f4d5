// Fault-isolated execution of one admitted job on its own virtual-cluster
// slice. Everything a job can throw — IntegrityAbort, NodeFailure, typed
// qsv errors, std exceptions — is converted into a typed response line; a
// hostile or unlucky job can fail itself, never the server or its siblings.
#pragma once

#include <string>

#include "machine/machine.hpp"
#include "serve/queue.hpp"

namespace qsv::serve {

struct ExecResult {
  enum class Status { kOk, kDeadline, kError };
  Status status = Status::kError;
  /// The response line (no trailing newline) — always set.
  std::string response_line;
  /// Modeled joules of the work actually performed (full run, or the
  /// priced prefix of a deadline-cancelled one).
  double energy_j = 0;
};

/// Runs `job` to completion or its deadline: allocates the statevector at
/// the job's (qubits, ranks) decomposition with the plan's engine options,
/// applies the cached plan run by run with the stop token polled at each
/// safe point, and digests the final state exactly like `qsv run` prints
/// `state crc32:` (digest identity is the service's correctness contract).
/// A deadline prefix is priced under the plan's job configuration, the one
/// its full-run estimate used. Never throws.
[[nodiscard]] ExecResult execute_job(QueuedJob& job,
                                     const MachineModel& machine,
                                     double queue_s);

}  // namespace qsv::serve
