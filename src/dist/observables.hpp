// Pauli-string observables: <psi| P |psi> for tensor products of
// {I, X, Y, Z}, and weighted sums of them (Hamiltonians). QuEST exposes the
// same surface (calcExpecPauliProd / calcExpecPauliSum); examples use it to
// read physics out of simulations without collapsing the state. The
// `state crc32` digest of a distributed state lives here too.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/dist_statevector.hpp"
#include "sv/statevector.hpp"

namespace qsv {

enum class Pauli : char { kI = 'I', kX = 'X', kY = 'Y', kZ = 'Z' };

/// A tensor product of Pauli operators on selected qubits, with a real
/// coefficient: coeff * P_{q0} ⊗ P_{q1} ⊗ ...
struct PauliTerm {
  real_t coefficient = 1.0;
  std::vector<std::pair<qubit_t, Pauli>> factors;  // distinct qubits

  /// Parses "0.5 * XIZ" style or "X0 Z2" style:
  ///  * "XIZ"    — one letter per qubit starting at qubit 0 (I's skipped);
  ///  * "X0 Z2"  — explicit qubit labels.
  /// A leading "<number> *" sets the coefficient. Throws qsv::Error on
  /// malformed input.
  [[nodiscard]] static PauliTerm parse(const std::string& text);

  [[nodiscard]] std::string str() const;

  /// Highest qubit touched (-1 if the term is the identity).
  [[nodiscard]] qubit_t max_qubit() const;
};

/// A weighted sum of Pauli terms.
struct PauliSum {
  std::vector<PauliTerm> terms;

  [[nodiscard]] qubit_t max_qubit() const;
};

/// <sv| term |sv>. The imaginary part of the full bracket is discarded —
/// it is zero for Hermitian operators up to rounding; use
/// `pauli_bracket` when the raw complex value is wanted.
template <class S>
[[nodiscard]] real_t expectation(const BasicStateVector<S>& sv,
                                 const PauliTerm& term);

template <class S>
[[nodiscard]] real_t expectation(const BasicStateVector<S>& sv,
                                 const PauliSum& sum);

/// Distributed variants: local partial sums per rank, conceptually
/// all-reduced (as QuEST does with MPI_Allreduce).
template <class S>
[[nodiscard]] real_t expectation(const DistStateVector<S>& sv,
                                 const PauliTerm& term);

template <class S>
[[nodiscard]] real_t expectation(const DistStateVector<S>& sv,
                                 const PauliSum& sum);

/// The `state crc32` digest: CRC-32 over the (re, im) doubles of every
/// amplitude in global amplitude order, as eight lowercase hex digits.
/// Layout-independent, so it matches across rank counts, engines and
/// recovery tiers; `qsv run` prints it and `qsv serve` returns it.
template <class S>
[[nodiscard]] std::string state_digest(const DistStateVector<S>& sv);

/// Raw complex bracket <sv| term |sv> (coefficient applied).
template <class S>
[[nodiscard]] cplx pauli_bracket(const BasicStateVector<S>& sv,
                                 const PauliTerm& term);

}  // namespace qsv
