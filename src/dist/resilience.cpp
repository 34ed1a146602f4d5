#include "dist/resilience.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace qsv {

double daly_interval_s(double mtbf_s, double checkpoint_s) {
  QSV_REQUIRE(mtbf_s > 0, "MTBF must be positive");
  QSV_REQUIRE(checkpoint_s > 0, "checkpoint cost must be positive");
  if (checkpoint_s >= 2 * mtbf_s) {
    return mtbf_s;  // checkpointing costs more than the expected loss
  }
  const double x = checkpoint_s / (2 * mtbf_s);
  return std::sqrt(2 * checkpoint_s * mtbf_s) *
             (1 + std::sqrt(x) / 3 + x / 9) -
         checkpoint_s;
}

std::uint64_t interval_to_gates(double interval_s, double seconds_per_gate) {
  QSV_REQUIRE(seconds_per_gate > 0, "per-gate time must be positive");
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(interval_s / seconds_per_gate));
}

}  // namespace qsv
