#include "perf/runner.hpp"

#include <gtest/gtest.h>

#include "circuit/builders.hpp"
#include "common/error.hpp"
#include "dist/trace.hpp"
#include "machine/archer2.hpp"
#include "perf/cost_model.hpp"

namespace qsv {
namespace {

const MachineModel& m() {
  static const MachineModel model = archer2();
  return model;
}

TEST(Runner, ModelAndFunctionalAgreeOnCosts) {
  // Small enough to run functionally; the trace-priced report must match
  // the functionally-priced one in every cost field.
  JobConfig job;
  job.num_qubits = 10;
  job.node_kind = NodeKind::kStandard;
  job.nodes = 8;
  const Circuit qft = build_qft(10);

  DistOptions opts;
  opts.max_message_bytes = 256;
  const RunReport a = run_model(qft, m(), job, opts);
  const RunReport b = run_functional_model(qft, m(), job, opts);

  EXPECT_DOUBLE_EQ(a.runtime_s, b.runtime_s);
  EXPECT_DOUBLE_EQ(a.node_energy_j, b.node_energy_j);
  EXPECT_DOUBLE_EQ(a.switch_energy_j, b.switch_energy_j);
  EXPECT_EQ(a.gates, b.gates);
  EXPECT_EQ(a.distributed_gates, b.distributed_gates);
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
  EXPECT_EQ(a.traffic.bytes, b.traffic.bytes);
}

TEST(Runner, PricePrefixMatchesGateByGateReference) {
  // The deadline pricer must equal a hand-driven trace engine + cost model
  // bit for bit at every prefix length, and run_model on the full circuit.
  JobConfig job;
  job.num_qubits = 10;
  job.nodes = 8;
  const Circuit qft = build_qft(10);
  DistOptions opts;
  opts.policy = CommPolicy::kNonBlocking;
  opts.max_message_bytes = 256;

  const std::uint64_t n = qft.size();
  for (const std::uint64_t k : {std::uint64_t{0}, n / 2, n}) {
    TraceSim sim(10, job.nodes, opts);
    CostModel cost(m(), job);
    sim.set_listener(&cost);
    for (std::uint64_t g = 0; g < k; ++g) {
      sim.apply(qft.gate(g));
    }
    const RunReport want = cost.report();
    const RunReport got = price_prefix(qft, k, m(), job, opts);
    EXPECT_EQ(got.runtime_s, want.runtime_s) << "k = " << k;
    EXPECT_EQ(got.total_energy_j(), want.total_energy_j()) << "k = " << k;
    if (k == n / 2) {
      EXPECT_GT(got.total_energy_j(), 0) << "a half prefix costs something";
    }
    if (k == n) {
      const RunReport full = run_model(qft, m(), job, opts);
      EXPECT_EQ(got.runtime_s, full.runtime_s);
      EXPECT_EQ(got.total_energy_j(), full.total_energy_j());
    }
  }
  EXPECT_THROW((void)price_prefix(qft, n + 1, m(), job, opts), Error);
}

TEST(Runner, RegisterMismatchThrows) {
  JobConfig job;
  job.num_qubits = 12;
  job.nodes = 4;
  EXPECT_THROW((void)run_model(build_qft(10), m(), job), Error);
}

TEST(Runner, ReportCountsGates) {
  JobConfig job;
  job.num_qubits = 38;
  job.nodes = 64;
  const RunReport r = run_model(build_hadamard_bench(38, 37, 50), m(), job);
  EXPECT_EQ(r.gates, 50u);
  EXPECT_EQ(r.distributed_gates, 50u);
  EXPECT_GT(r.time_per_gate(), 9.0);
  EXPECT_GT(r.energy_per_gate(), 150e3);
}

TEST(Runner, CuScalesWithNodesAndRuntime) {
  JobConfig job;
  job.num_qubits = 38;
  job.nodes = 64;
  const RunReport r = run_model(build_hadamard_bench(38, 5, 72), m(), job);
  EXPECT_NEAR(r.cu, 64.0 * r.runtime_s / 3600.0, 1e-9);
}

}  // namespace
}  // namespace qsv
