// The one parallel-execution layer. Every parallel loop goes through
// for_range or reduce, and every thread that starts compute threads sizes
// them with share():
//
//  * Grain: a loop with fewer than 2 * grain iterations runs serially, and
//    a parallel loop gives each thread at least `grain` of them, so small
//    slices never fork a team (on shared CPUs an idle team's spin-wait
//    costs far more than the fork itself).
//  * No nesting: a loop started inside a parallel body runs serially.
//  * Width rule: a thread that starts N compute threads (rank workers,
//    serve workers) gives each max(1, own width / N).
//  * Deterministic reduction: reduce() sums fixed-size blocks and adds the
//    partials in block order, so its bits do not depend on the width.
//
// OpenMP is the runtime behind for_range and par.cpp is its only user;
// built without OpenMP every loop runs serially and widths are still kept.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace qsv::par {

/// Fewest amplitudes a memory-bound amplitude loop hands one thread (256 KiB
/// of state); a loop whose iterations touch k amplitudes passes
/// kAmpGrain / k. bench/micro_kernels BM_ParCrossover on an idle 4-CPU
/// AVX-512 host: a 4-way split first beats one thread at 2^14 amplitudes
/// (2^12 per thread). The grain is 4x that, since a team on shared CPUs
/// costs far more than on an idle host.
inline constexpr std::int64_t kAmpGrain = std::int64_t{1} << 14;

/// Iterations per partial sum in reduce(). Fixed, so a reduction's bits do
/// not depend on the width. bench/micro_kernels BM_ParReduce on the same
/// host: as fast as the plain loop up to 2^14 amplitudes (one to four
/// blocks), 2.4x faster at 2^16 and 3.4x at 2^22 at width 4.
inline constexpr std::int64_t kReduceBlock = std::int64_t{1} << 12;

/// This thread's compute width (>= 1): the most threads a loop it starts
/// may use. Unset, it is the OpenMP default thread count (which honours
/// OMP_NUM_THREADS), or the hardware concurrency without OpenMP.
[[nodiscard]] int width();

/// Sets this thread's compute width (values below 1 count as 1).
void set_width(int w);

/// The width rule: what each of `n` threads started by this thread gets,
/// max(1, width() / n). Each started thread passes it to set_width().
[[nodiscard]] int share(int n);

namespace detail {
using RangeFn = void (*)(void* body, std::int64_t lo, std::int64_t hi);
void run(std::int64_t n, std::int64_t grain, RangeFn fn, void* body);
}  // namespace detail

/// Calls body(lo, hi) on contiguous ranges that together cover [0, n) once,
/// one range per thread, min(width(), n / grain) threads. Bodies must not
/// throw.
template <class Body>
void for_range(std::int64_t n, std::int64_t grain, Body&& body) {
  using B = std::remove_reference_t<Body>;
  detail::run(
      n, grain,
      [](void* b, std::int64_t lo, std::int64_t hi) {
        (*static_cast<B*>(b))(lo, hi);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// Deterministic sum over [0, n): block_sum(lo, hi) sums one block of at
/// most kReduceBlock iterations in index order, and the partials are added
/// in block order. Blocks run in parallel as for_range would run `n`
/// iterations at `grain`.
template <class BlockSum>
double reduce(std::int64_t n, std::int64_t grain, BlockSum&& block_sum) {
  const std::int64_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<double> partial(static_cast<std::size_t>(blocks));
  for_range(blocks, std::max<std::int64_t>(1, grain / kReduceBlock),
            [&](std::int64_t lo, std::int64_t hi) {
              for (std::int64_t b = lo; b < hi; ++b) {
                partial[static_cast<std::size_t>(b)] = block_sum(
                    b * kReduceBlock, std::min(n, (b + 1) * kReduceBlock));
              }
            });
  double acc = 0;
  for (const double p : partial) {
    acc += p;
  }
  return acc;
}

}  // namespace qsv::par
