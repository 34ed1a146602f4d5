// Internal: per-backend kernel-table getters, linked by dispatch.cpp.
// Availability macros (QSV_SIMD_HAVE_*) are defined by src/sv/CMakeLists.txt
// for backends whose ISA flags the compiler accepted on this architecture.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/par.hpp"
#include "sv/simd/simd.hpp"

namespace qsv::simd {

const KernelOps& scalar_ops();
#if QSV_SIMD_HAVE_AVX2
const KernelOps& avx2_ops();
#endif
#if QSV_SIMD_HAVE_AVX512
const KernelOps& avx512_ops();
#endif

/// Splits a span's `n` amplitudes across threads in whole groups of `group`
/// amplitudes (what one loop iteration touches: an amplitude, a pair, a
/// quad, a vector's worth): body(lo, hi) gets amplitude offsets that are
/// multiples of `group`. The grain is par::kAmpGrain amplitudes.
template <class Body>
void for_amps(amp_index n, std::int64_t group, Body&& body) {
  par::for_range(static_cast<std::int64_t>(n) / group, par::kAmpGrain / group,
                 [&](std::int64_t lo, std::int64_t hi) {
                   body(lo * group, hi * group);
                 });
}

/// Splits pair counters [lo, hi) of a target with pair stride `stride` into
/// runs of contiguous lower members: counter blk * stride + off has lower
/// member blk * 2 * stride + off, so f(i0, len) covers lower members
/// i0 .. i0 + len - 1 (upper members one stride above) in a loop that
/// vectorises.
template <class F>
void for_pair_runs(std::int64_t lo, std::int64_t hi, std::int64_t stride,
                   F&& f) {
  while (lo < hi) {
    const std::int64_t off = lo & (stride - 1);
    const std::int64_t len = std::min(hi - lo, stride - off);
    f(2 * lo - off, len);
    lo += len;
  }
}

}  // namespace qsv::simd
