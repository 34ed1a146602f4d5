// Characterization of every read of a whole distributed state: the exact
// bits of expectation() for seeded random Pauli terms (X and Y on rank bits
// included), state_digest() and the CRC-32 of a save_state() file, at 1, 2,
// 4 and 8 ranks on the serial and threaded engines. The pinned values were
// recorded from the per-amplitude reference loops (one global-index-order
// sum per term), so any change of summation order or byte layout shows here
// as a changed bit, not as a tolerance.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "dist/observables.hpp"
#include "dist/snapshot.hpp"

namespace qsv {
namespace {

constexpr int kQubits = 10;

Circuit state_circuit() {
  Rng rng(2024);
  return build_random(kQubits, 200, rng);
}

/// Every single-qubit Z (what `qsv run` prints), X/Y on the top (rank)
/// qubits, then seeded random dense terms over all qubits.
std::vector<PauliTerm> terms() {
  std::vector<PauliTerm> out;
  for (qubit_t q = 0; q < kQubits; ++q) {
    PauliTerm z;
    z.factors.emplace_back(q, Pauli::kZ);
    out.push_back(z);
  }
  for (const char* s : {"X9", "Y9", "X8 Y7", "Y9 X0", "0.5 * X9 Y8 X7 Z3",
                        "Y0 Y1 Y2 Y9", "-1.25 * XYZXYZXYZX", "I"}) {
    out.push_back(PauliTerm::parse(s));
  }
  Rng rng(77);
  constexpr Pauli kLetters[4] = {Pauli::kI, Pauli::kX, Pauli::kY, Pauli::kZ};
  for (int k = 0; k < 60; ++k) {
    PauliTerm t;
    t.coefficient = rng.uniform(-2, 2);
    for (qubit_t q = 0; q < kQubits; ++q) {
      const Pauli p = kLetters[rng.below(4)];
      if (p != Pauli::kI) {
        t.factors.emplace_back(q, p);
      }
    }
    out.push_back(t);
  }
  return out;
}

/// CRC-32 over the bit patterns of `values`.
std::uint32_t fingerprint(const std::vector<double>& values) {
  return crc32(values.data(), values.size() * sizeof(double));
}

std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return crc32(bytes.data(), bytes.size());
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// Recorded from the per-amplitude reference loops.
constexpr std::uint32_t kExpectationFingerprint = 0x1e100bfau;
constexpr std::uint32_t kBracketFingerprint = 0x9bc38818u;
constexpr const char* kDigest = "24339a01";
constexpr std::uint32_t kSingleFileCrc = 0xc3e5b49bu;
// save_state(DistStateVector) files at 1/2/4/8 ranks (the header carries
// the rank width, so each width has its own file).
constexpr std::uint32_t kDistFileCrc[4] = {0xc3e5b49bu, 0xa42f2bd9u,
                                           0x6bba155du, 0x2fe16e14u};

TEST(StateReads, SingleAddressSpaceBitsArePinned) {
  StateVector sv(kQubits);
  sv.apply(state_circuit());
  std::vector<double> exp;
  std::vector<double> bracket;
  for (const PauliTerm& t : terms()) {
    exp.push_back(expectation(sv, t));
    const cplx b = pauli_bracket(sv, t);
    bracket.push_back(b.real());
    bracket.push_back(b.imag());
  }
  EXPECT_EQ(fingerprint(exp), kExpectationFingerprint);
  EXPECT_EQ(fingerprint(bracket), kBracketFingerprint);

  const std::string path = tmp_path("state_reads_single.qsv");
  save_state(path, sv);
  EXPECT_EQ(file_crc(path), kSingleFileCrc);
  std::remove(path.c_str());
}

class StateReadsDist
    : public testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(StateReadsDist, BitsArePinned) {
  const auto [ranks, threaded] = GetParam();
  DistOptions opts;
  if (threaded) {
    opts.threading.threads = ranks;
  }
  DistStateVector<SoaStorage> sv(kQubits, ranks, opts);
  sv.apply(state_circuit());

  std::vector<double> exp;
  for (const PauliTerm& t : terms()) {
    exp.push_back(expectation(sv, t));
  }
  EXPECT_EQ(fingerprint(exp), kExpectationFingerprint);
  EXPECT_EQ(state_digest(sv), kDigest);

  const std::string path = tmp_path("state_reads_dist.qsv");
  save_state(path, sv);
  int width_index = 0;
  while ((1 << width_index) < ranks) {
    ++width_index;
  }
  EXPECT_EQ(file_crc(path), kDistFileCrc[width_index]);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Widths, StateReadsDist,
    testing::Combine(testing::Values(1, 2, 4, 8), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<int, bool>>& p) {
      return std::to_string(std::get<0>(p.param)) + "ranks_" +
             (std::get<1>(p.param) ? "threaded" : "serial");
    });

}  // namespace
}  // namespace qsv
