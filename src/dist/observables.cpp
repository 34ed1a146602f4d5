#include "dist/observables.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdio>
#include <span>
#include <sstream>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace qsv {
namespace {

/// Masks derived from a term: X/Y flips and the phase rules.
struct TermMasks {
  amp_index x_flip = 0;  // X and Y factors flip these bits
  amp_index z_mask = 0;  // Z factors: (-1)^bit
  amp_index y_mask = 0;  // Y factors: +/- i depending on the source bit
  int y_count = 0;
};

TermMasks masks_of(const PauliTerm& term) {
  TermMasks m;
  for (const auto& [q, p] : term.factors) {
    QSV_REQUIRE(q >= 0 && q < 62, "pauli qubit out of range");
    switch (p) {
      case Pauli::kI:
        break;
      case Pauli::kX:
        m.x_flip = bits::set_bit(m.x_flip, q);
        break;
      case Pauli::kY:
        m.x_flip = bits::set_bit(m.x_flip, q);
        m.y_mask = bits::set_bit(m.y_mask, q);
        ++m.y_count;
        break;
      case Pauli::kZ:
        m.z_mask = bits::set_bit(m.z_mask, q);
        break;
    }
  }
  return m;
}

/// Phase factor applied to a source basis state with `minus` set Z and Y
/// bits: (-1)^minus for the Z signs and Y's source bits (Y on source bit b
/// is i * (-1)^b), times i^y_count.
cplx phase_of(int minus, int y_count) {
  cplx f = (minus & 1) ? cplx{-1, 0} : cplx{1, 0};
  switch (y_count % 4) {  // i^y_count
    case 1: f *= cplx{0, 1}; break;
    case 2: f *= cplx{-1, 0}; break;
    case 3: f *= cplx{0, -1}; break;
    default: break;
  }
  return f;
}

/// The one Pauli loop: the sum over global index i of
/// conj(a_i) * phase(j) * a_j with j = i ^ x_flip, walked slice by
/// slice. One accumulator runs through the slices in rank order, so the
/// sum is the global-index-order sum at every rank width. Rank r's local
/// index i pairs with the partner slice r ^ (x_flip >> local_qubits) at
/// local index i ^ (x_flip & mask); the X/Y flip may cross into a peer
/// slice (conceptually the exchanged buffer; here a direct read).
template <class S>
cplx bracket(std::span<const S> slices, int local_qubits, const TermMasks& m) {
  const amp_index n_local = amp_index{1} << local_qubits;
  const amp_index local_flip = m.x_flip & (n_local - 1);
  const std::size_t rank_flip =
      static_cast<std::size_t>(m.x_flip >> local_qubits);
  // The phase depends only on the parity of j's Z and Y bits.
  const amp_index sign_mask = m.z_mask ^ m.y_mask;
  const cplx phase[2] = {phase_of(0, m.y_count), phase_of(1, m.y_count)};
  cplx acc = 0;
  for (std::size_t r = 0; r < slices.size(); ++r) {
    const S& a = slices[r];
    const S& b = slices[r ^ rank_flip];
    const amp_index partner_base = static_cast<amp_index>(r ^ rank_flip)
                                   << local_qubits;
    for (amp_index i = 0; i < n_local; ++i) {
      const amp_index j = i ^ local_flip;
      const int odd = std::popcount((partner_base | j) & sign_mask) & 1;
      acc += std::conj(a.get(i)) * phase[odd] * b.get(j);
    }
  }
  return acc;
}

}  // namespace

PauliTerm PauliTerm::parse(const std::string& text) {
  PauliTerm term;
  std::string body = text;

  // Optional "<coeff> *" prefix.
  const auto star = text.find('*');
  if (star != std::string::npos) {
    std::istringstream is(text.substr(0, star));
    is >> term.coefficient;
    QSV_REQUIRE(!is.fail(), "bad coefficient in pauli term: " + text);
    body = text.substr(star + 1);
  }

  // Trim whitespace.
  auto trim = [](std::string s) {
    const auto b = s.find_first_not_of(" \t");
    const auto e = s.find_last_not_of(" \t");
    return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
  };
  body = trim(body);
  QSV_REQUIRE(!body.empty(), "empty pauli term: " + text);

  const bool labelled =
      body.find_first_of("0123456789") != std::string::npos;
  std::vector<bool> seen(64, false);
  auto add = [&](qubit_t q, char c) {
    QSV_REQUIRE(q >= 0 && q < 62, "pauli qubit out of range: " + text);
    QSV_REQUIRE(!seen[q], "duplicate qubit in pauli term: " + text);
    seen[q] = true;
    Pauli p;
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'I': p = Pauli::kI; break;
      case 'X': p = Pauli::kX; break;
      case 'Y': p = Pauli::kY; break;
      case 'Z': p = Pauli::kZ; break;
      default:
        QSV_REQUIRE(false, std::string("bad pauli letter '") + c + "' in: " +
                               text);
        return;
    }
    if (p != Pauli::kI) {
      term.factors.emplace_back(q, p);
    }
  };

  if (labelled) {
    // "X0 Z2" form.
    std::istringstream is(body);
    std::string tok;
    while (is >> tok) {
      QSV_REQUIRE(tok.size() >= 2, "bad pauli factor: " + tok);
      add(static_cast<qubit_t>(std::stoi(tok.substr(1))), tok[0]);
    }
  } else {
    // "XIZ" form: letter k acts on qubit k.
    qubit_t q = 0;
    for (char c : body) {
      if (c == ' ') {
        continue;
      }
      add(q++, c);
    }
  }
  return term;
}

std::string PauliTerm::str() const {
  std::ostringstream os;
  os << coefficient << " *";
  if (factors.empty()) {
    os << " I";
  }
  for (const auto& [q, p] : factors) {
    os << ' ' << static_cast<char>(p) << q;
  }
  return os.str();
}

qubit_t PauliTerm::max_qubit() const {
  qubit_t m = -1;
  for (const auto& [q, p] : factors) {
    m = std::max(m, q);
  }
  return m;
}

qubit_t PauliSum::max_qubit() const {
  qubit_t m = -1;
  for (const PauliTerm& t : terms) {
    m = std::max(m, t.max_qubit());
  }
  return m;
}

template <class S>
cplx pauli_bracket(const BasicStateVector<S>& sv, const PauliTerm& term) {
  QSV_REQUIRE(term.max_qubit() < sv.num_qubits(),
              "pauli term exceeds the register");
  return bracket(std::span<const S>(&sv.storage(), 1), sv.num_qubits(),
                 masks_of(term)) *
         term.coefficient;
}

template <class S>
real_t expectation(const BasicStateVector<S>& sv, const PauliTerm& term) {
  return pauli_bracket(sv, term).real();
}

template <class S>
real_t expectation(const BasicStateVector<S>& sv, const PauliSum& sum) {
  real_t acc = 0;
  for (const PauliTerm& t : sum.terms) {
    acc += expectation(sv, t);
  }
  return acc;
}

template <class S>
real_t expectation(const DistStateVector<S>& sv, const PauliTerm& term) {
  QSV_REQUIRE(term.max_qubit() < sv.num_qubits(),
              "pauli term exceeds the register");
  return (bracket(sv.slices(), sv.local_qubits(), masks_of(term)) *
          term.coefficient)
      .real();
}

template <class S>
real_t expectation(const DistStateVector<S>& sv, const PauliSum& sum) {
  real_t acc = 0;
  for (const PauliTerm& t : sum.terms) {
    acc += expectation(sv, t);
  }
  return acc;
}

template <class S>
std::string state_digest(const DistStateVector<S>& sv) {
  char digest[16];
  std::snprintf(digest, sizeof digest, "%08x", packed_crc(sv.slices()));
  return digest;
}

template cplx pauli_bracket<SoaStorage>(const BasicStateVector<SoaStorage>&,
                                        const PauliTerm&);
template real_t expectation<SoaStorage>(const BasicStateVector<SoaStorage>&,
                                        const PauliTerm&);
template real_t expectation<SoaStorage>(const BasicStateVector<SoaStorage>&,
                                        const PauliSum&);
template real_t expectation<SoaStorage>(const DistStateVector<SoaStorage>&,
                                        const PauliTerm&);
template real_t expectation<SoaStorage>(const DistStateVector<SoaStorage>&,
                                        const PauliSum&);

template std::string state_digest<SoaStorage>(
    const DistStateVector<SoaStorage>&);

}  // namespace qsv
