#include "perf/runner.hpp"

#include "common/error.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/trace.hpp"
#include "perf/cost_model.hpp"
#include "sv/simd/simd.hpp"

namespace qsv {

RunReport run_model(const Circuit& circuit, const MachineModel& machine,
                    const JobConfig& job, const DistOptions& opts) {
  QSV_REQUIRE(job.num_qubits == circuit.num_qubits(),
              "job register size does not match the circuit");
  TraceSim sim(circuit.num_qubits(), job.nodes, opts);
  CostModel cost(machine, job);
  sim.set_listener(&cost);
  sim.apply(circuit);

  RunReport r = cost.report();
  r.traffic = sim.comm_stats();
  return r;
}

RunReport price_prefix(const Circuit& circuit, std::uint64_t gates,
                       const MachineModel& machine, const JobConfig& job,
                       const DistOptions& opts) {
  QSV_REQUIRE(job.num_qubits == circuit.num_qubits(),
              "job register size does not match the circuit");
  QSV_REQUIRE(gates <= circuit.size(), "prefix longer than the circuit");
  TraceSim sim(circuit.num_qubits(), job.nodes, opts);
  CostModel cost(machine, job);
  sim.set_listener(&cost);
  for (std::uint64_t g = 0; g < gates; ++g) {
    sim.apply(circuit.gate(g));
  }

  RunReport r = cost.report();
  r.traffic = sim.comm_stats();
  return r;
}

RunReport run_functional_model(const Circuit& circuit,
                               const MachineModel& machine,
                               const JobConfig& job, const DistOptions& opts) {
  QSV_REQUIRE(job.num_qubits == circuit.num_qubits(),
              "job register size does not match the circuit");
  DistStateVector<SoaStorage> sim(circuit.num_qubits(), job.nodes, opts);
  CostModel cost(machine, job);
  sim.set_listener(&cost);
  sim.apply(circuit);

  RunReport r = cost.report();
  r.traffic = sim.comm_stats();
  r.kernel_backend = simd::backend_name(simd::active_backend());
  return r;
}

}  // namespace qsv
