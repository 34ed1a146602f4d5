#include "serve/executor.hpp"

#include "cluster/faults.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/observables.hpp"
#include "dist/recovery_policy.hpp"
#include "dist/trace.hpp"
#include "perf/cost_model.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "sv/storage.hpp"

namespace qsv::serve {
namespace {

/// Prices the applied prefix [0, gates_done) of the plan's circuit on the
/// trace engine — the partial cost a deadline-cancelled job still reports.
RunReport price_prefix(const QueuedJob& job, const MachineModel& machine,
                       const AdmissionLimits& limits,
                       std::uint64_t gates_done) {
  DistOptions opts;
  opts.policy = limits.policy;
  TraceSim sim(job.num_qubits, job.ranks, opts);
  JobConfig jc;
  jc.num_qubits = job.num_qubits;
  jc.node_kind = limits.node_kind;
  jc.freq = limits.freq;
  jc.nodes = job.ranks;
  CostModel cost(machine, jc);
  sim.set_listener(&cost);
  for (std::uint64_t g = 0; g < gates_done; ++g) {
    sim.apply(job.plan->circuit.gate(g));
  }
  return cost.report();
}

}  // namespace

ExecResult execute_job(QueuedJob& job, const MachineModel& machine,
                       const AdmissionLimits& limits, double queue_s) {
  ExecResult result;
  const Circuit& c = job.plan->circuit;
  try {
    DistOptions opts;
    opts.policy = limits.policy;
    DistStateVector<SoaStorage> sv(job.num_qubits, job.ranks, opts);

    // A deadline that elapsed while the job queued cancels before any gate
    // — still a typed "deadline" response with a zero-gate prefix.
    std::uint64_t gates_done = 0;
    try {
      for (const GateRun& run : job.plan->runs) {
        if (job.token.possible() && job.token.expired()) {
          throw DeadlineExceeded("deadline exceeded at gate " +
                                     std::to_string(gates_done) + " of " +
                                     std::to_string(c.size()),
                                 gates_done, c.size(), job.token.cancelled());
        }
        sv.apply_run(c, run);
        gates_done += run.count;
      }
    } catch (const DeadlineExceeded& d) {
      const RunReport partial =
          price_prefix(job, machine, limits, d.gates_done());
      JsonObject o;
      o["id"] = job.id;
      o["status"] = "deadline";
      o["gates_done"] = d.gates_done();
      o["gates"] = static_cast<std::uint64_t>(c.size());
      o["ranks"] = job.ranks;
      o["runtime_s"] = partial.runtime_s;
      o["energy_j"] = partial.total_energy_j();
      o["queue_s"] = queue_s;
      result.status = ExecResult::Status::kDeadline;
      result.response_line = Json(std::move(o)).dump();
      result.energy_j = partial.total_energy_j();
      return result;
    }

    const RunReport& full = job.plan->estimate;
    JsonObject o;
    o["id"] = job.id;
    o["status"] = "ok";
    o["digest"] = state_digest(sv);
    o["gates"] = static_cast<std::uint64_t>(c.size());
    o["ranks"] = job.ranks;
    o["runtime_s"] = full.runtime_s;
    o["energy_j"] = full.total_energy_j();
    o["queue_s"] = queue_s;
    o["cache"] = job.cache_hit ? "hit" : "miss";
    result.status = ExecResult::Status::kOk;
    result.response_line = Json(std::move(o)).dump();
    result.energy_j = full.total_energy_j();
    return result;
  } catch (const IntegrityAbort& e) {
    result.response_line = make_error_response(job.id, "integrity", e.what());
  } catch (const NodeFailure& e) {
    result.response_line =
        make_error_response(job.id, "node_failure", e.what());
  } catch (const Error& e) {
    result.response_line = make_error_response(job.id, "internal", e.what());
  } catch (const std::exception& e) {
    result.response_line = make_error_response(job.id, "internal", e.what());
  }
  result.status = ExecResult::Status::kError;
  return result;
}

}  // namespace qsv::serve
