// The admission controller: prices every job against the machine model's
// memory and energy budget before it is allowed near the queue.
//
// Admission math (docs/SERVING.md):
//   1. integrity  — the optional crc32 field must match CRC-32 of the
//                   circuit text (a corrupted payload is rejected, not run);
//   2. geometry   — ranks must be a power of two and fit the server's node
//                   capacity; the register must fit the functional cap
//                   (amplitudes are really allocated, unlike trace mode);
//   3. memory     — per_node_bytes(qubits, ranks) must fit the machine
//                   model's usable bytes per node (the paper's slice +
//                   exchange-buffer doubling rule);
//   4. energy     — the plan-cache's modeled full-run energy must fit the
//                   per-job energy budget, when one is configured.
// Malformed circuits throw typed errors (the server answers status:"error");
// infeasible-but-well-formed jobs return admit=false with the reason
// (status:"rejected"). Feasible jobs carry their immutable CachedPlan out,
// so admission is also where the transpiled plan cache is consulted.
#pragma once

#include <memory>
#include <string>

#include "dist/options.hpp"
#include "machine/job.hpp"
#include "machine/machine.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"

namespace qsv::serve {

struct AdmissionLimits {
  /// Virtual nodes the server bin-packs jobs onto (one rank per node).
  int nodes = 64;
  /// Functional-engine register cap: amplitudes are really allocated, so
  /// this bounds per-job memory on the host actually running the server.
  int max_qubits = 22;
  /// Modeled per-job energy budget in joules; 0 = unlimited.
  double energy_budget_j = 0;
  NodeKind node_kind = NodeKind::kStandard;
  CpuFreq freq = CpuFreq::kMedium2000;
  /// Exchange policy jobs run (and are priced) under.
  CommPolicy policy = CommPolicy::kBlocking;
};

struct AdmissionDecision {
  bool admit = false;
  /// Why not (admit == false).
  std::string reason;
  /// Parsed register width (valid once the circuit parsed).
  int num_qubits = 0;
  /// Granted rank count (power of two, <= limits.nodes).
  int ranks = 0;
  /// The transpiled/planned/priced plan (admit == true).
  std::shared_ptr<const CachedPlan> plan;
  /// Whether the plan came from the cache (reported in the response).
  bool cache_hit = false;
};

/// Stateless apart from the shared plan cache; safe to call from any
/// connection thread.
class AdmissionController {
 public:
  AdmissionController(const MachineModel& machine, AdmissionLimits limits,
                      PlanCache& cache)
      : machine_(machine), limits_(limits), cache_(cache) {}
  /// The machine is held by reference: a temporary would dangle.
  AdmissionController(MachineModel&&, AdmissionLimits, PlanCache&) = delete;

  /// Decides one request. Throws qsv::Error subtypes on malformed circuit
  /// text (the caller maps those to typed error responses); returns
  /// admit=false for well-formed but infeasible jobs.
  [[nodiscard]] AdmissionDecision decide(const JobRequest& req) const;

  [[nodiscard]] const AdmissionLimits& limits() const { return limits_; }
  [[nodiscard]] const MachineModel& machine() const { return machine_; }

 private:
  const MachineModel& machine_;
  AdmissionLimits limits_;
  PlanCache& cache_;
};

}  // namespace qsv::serve
