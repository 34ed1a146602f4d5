// Amplitude storage.
//
// QuEST stores amplitudes as two separate real/imaginary arrays (structure
// of arrays), and so does this simulator. The engines stay templated over
// the storage type `S`, but SoaStorage is the only one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace qsv {

/// Separate real/imaginary arrays (QuEST's layout).
class SoaStorage {
 public:
  SoaStorage() = default;
  explicit SoaStorage(amp_index n) : re_(n), im_(n) {}

  [[nodiscard]] amp_index size() const { return re_.size(); }

  [[nodiscard]] cplx get(amp_index i) const { return {re_[i], im_[i]}; }
  void set(amp_index i, cplx v) {
    re_[i] = v.real();
    im_[i] = v.imag();
  }

  /// Direct component access for the hot kernels.
  [[nodiscard]] real_t* re() { return re_.data(); }
  [[nodiscard]] real_t* im() { return im_.data(); }
  [[nodiscard]] const real_t* re() const { return re_.data(); }
  [[nodiscard]] const real_t* im() const { return im_.data(); }

  void fill_zero() {
    std::memset(re_.data(), 0, re_.size() * sizeof(real_t));
    std::memset(im_.data(), 0, im_.size() * sizeof(real_t));
  }

  /// Serialises amplitudes [first, first+count) into a byte buffer as
  /// interleaved (re, im) doubles: the one amplitude byte layout (message
  /// payloads, re-shard handoffs, the state digest, checkpoint files).
  /// Returns bytes written.
  std::size_t pack(amp_index first, amp_index count, std::byte* out) const {
    QSV_REQUIRE(first + count <= size(), "pack range out of bounds");
    for (amp_index k = 0; k < count; ++k) {
      std::memcpy(out + k * kBytesPerAmp, &re_[first + k], sizeof(real_t));
      std::memcpy(out + k * kBytesPerAmp + sizeof(real_t), &im_[first + k],
                  sizeof(real_t));
    }
    return count * kBytesPerAmp;
  }

  /// Inverse of pack.
  void unpack(amp_index first, amp_index count, const std::byte* in) {
    QSV_REQUIRE(first + count <= size(), "unpack range out of bounds");
    for (amp_index k = 0; k < count; ++k) {
      std::memcpy(&re_[first + k], in + k * kBytesPerAmp, sizeof(real_t));
      std::memcpy(&im_[first + k], in + k * kBytesPerAmp + sizeof(real_t),
                  sizeof(real_t));
    }
  }

 private:
  std::vector<real_t> re_;
  std::vector<real_t> im_;
};

/// Amplitudes per chunk when whole slices stream through pack/unpack
/// (state checksums, checkpoint files): 64 KiB of packed bytes.
inline constexpr amp_index kStageAmps = amp_index{1} << 12;

/// Streams `slices`, in order, as packed chunks through one staging buffer,
/// calling `sink(const std::byte*, std::size_t)` once per chunk.
template <class Sink>
void pack_chunks(std::span<const SoaStorage> slices, Sink&& sink) {
  std::vector<std::byte> stage(kStageAmps * kBytesPerAmp);
  for (const SoaStorage& s : slices) {
    for (amp_index first = 0; first < s.size(); first += kStageAmps) {
      const amp_index count = std::min(kStageAmps, s.size() - first);
      sink(stage.data(), s.pack(first, count, stage.data()));
    }
  }
}

/// CRC-32 of the packed bytes of `slices`, in order: over every rank's
/// slice it is the `state crc32` digest, over one it is that rank's span.
[[nodiscard]] inline std::uint32_t packed_crc(
    std::span<const SoaStorage> slices) {
  Crc32 crc;
  pack_chunks(slices, [&](const std::byte* p, std::size_t n) {
    crc.update(p, n);
  });
  return crc.value();
}

}  // namespace qsv
