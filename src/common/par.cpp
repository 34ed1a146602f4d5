#include "common/par.hpp"

#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace qsv::par {
namespace {

thread_local int tl_width = 0;  // 0: never set, use the process default

}  // namespace

int width() {
#ifdef _OPENMP
  const int fallback = omp_get_max_threads();
#else
  const int fallback = static_cast<int>(std::thread::hardware_concurrency());
#endif
  return std::max(1, tl_width > 0 ? tl_width : fallback);
}

void set_width(int w) { tl_width = std::max(1, w); }

int share(int n) { return std::max(1, width() / std::max(1, n)); }

void detail::run(std::int64_t n, [[maybe_unused]] std::int64_t grain,
                 RangeFn fn, void* body) {
#ifdef _OPENMP
  const std::int64_t threads =
      std::min<std::int64_t>(width(), n / std::max<std::int64_t>(1, grain));
  if (threads > 1 && !omp_in_parallel()) {
#pragma omp parallel num_threads(static_cast<int>(threads))
    {
      // Static split over the team that actually started (it may be
      // smaller than asked for); the first n % nt ranges get one extra.
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t t = omp_get_thread_num();
      const std::int64_t lo = t * (n / nt) + std::min(t, n % nt);
      fn(body, lo, lo + n / nt + (t < n % nt ? 1 : 0));
    }
    return;
  }
#endif
  if (n > 0) {
    fn(body, 0, n);
  }
}

}  // namespace qsv::par
