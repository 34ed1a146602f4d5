#include "serve/admission.hpp"

#include <cmath>

#include "circuit/serialize.hpp"
#include "circuit/transpile/cache_blocking.hpp"
#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "perf/runner.hpp"

namespace qsv::serve {
namespace {

bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

AdmissionDecision AdmissionController::decide(const JobRequest& req) const {
  AdmissionDecision d;

  // Integrity first: a payload whose claimed CRC does not match was
  // corrupted in transit (or is probing) — reject before parsing effort.
  const std::uint32_t crc =
      crc32(req.circuit_text.data(), req.circuit_text.size());
  if (req.crc32.has_value() && *req.crc32 != crc) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "crc32 mismatch: payload %08x, claimed %08x",
                  crc, *req.crc32);
    d.reason = buf;
    return d;
  }

  // Parse (typed errors propagate to the caller's error response).
  const Circuit parsed = parse_circuit(req.circuit_text);
  d.num_qubits = parsed.num_qubits();

  // Geometry.
  if (!is_power_of_two(req.ranks)) {
    d.reason = "ranks must be a power of two, got " +
               std::to_string(req.ranks);
    return d;
  }
  if (req.ranks > limits_.nodes) {
    d.reason = "ranks " + std::to_string(req.ranks) +
               " exceed the server's " + std::to_string(limits_.nodes) +
               "-node capacity";
    return d;
  }
  const int rank_bits = bits::log2_exact(static_cast<std::uint64_t>(req.ranks));
  if (d.num_qubits <= rank_bits) {
    d.reason = "register of " + std::to_string(d.num_qubits) +
               " qubits cannot split over " + std::to_string(req.ranks) +
               " ranks (needs > " + std::to_string(rank_bits) + " qubits)";
    return d;
  }
  if (d.num_qubits > limits_.max_qubits) {
    d.reason = "register of " + std::to_string(d.num_qubits) +
               " qubits exceeds the functional service cap of " +
               std::to_string(limits_.max_qubits) +
               " (use op:price for trace-scale estimates)";
    return d;
  }

  // Every job runs and is priced at one configuration: standard nodes at
  // the default frequency, one rank per node, the default engine options.
  JobConfig job;
  job.num_qubits = d.num_qubits;
  job.nodes = req.ranks;

  // Memory: the paper's slice + exchange-buffer rule against the machine
  // model's usable bytes per node.
  if (!fits(machine_, d.num_qubits, job.node_kind, req.ranks)) {
    d.reason = std::to_string(d.num_qubits) + " qubits need " +
               std::to_string(per_node_bytes(d.num_qubits, req.ranks)) +
               " bytes per node on " + std::to_string(req.ranks) + " " +
               node_kind_name(job.node_kind) +
               " nodes — over the machine model's budget";
    return d;
  }
  d.ranks = req.ranks;

  // Transpile + sweep-plan + price, through the shared plan cache.
  PlanKey key{crc, d.num_qubits, d.ranks, req.transpile};
  const int local_qubits = d.num_qubits - rank_bits;
  bool built = false;
  d.plan = cache_.get_or_build(key, [&]() {
    built = true;
    auto plan = std::make_shared<CachedPlan>(parsed);
    if (req.transpile) {
      CacheBlockingOptions o;
      o.local_qubits = local_qubits;
      const Circuit blocked = CacheBlockingPass(o).run(parsed);
      plan->transpiled = circuit_to_text(blocked) != req.circuit_text;
      plan->circuit = blocked;
    }
    plan->job = job;
    plan->runs = plan_sweep_runs(plan->circuit.gates(), local_qubits,
                                 plan->opts.sweep);
    // Price the full circuit once on the trace engine: the admission
    // energy check and the fleet's joules/request both read this.
    plan->estimate =
        run_model(plan->circuit, machine_, plan->job, plan->opts);
    return plan;
  });
  d.cache_hit = !built;

  // Energy budget, from the modeled full-run estimate.
  if (limits_.energy_budget_j > 0 &&
      d.plan->estimate.total_energy_j() > limits_.energy_budget_j) {
    d.reason = "modeled energy " +
               std::to_string(d.plan->estimate.total_energy_j()) +
               " J exceeds the per-job budget of " +
               std::to_string(limits_.energy_budget_j) + " J";
    d.plan.reset();
    return d;
  }

  d.admit = true;
  return d;
}

}  // namespace qsv::serve
