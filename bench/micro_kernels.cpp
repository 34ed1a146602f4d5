// Google-benchmark micros for the local gate kernels (host-machine
// throughput; the ARCHER2 numbers come from the calibrated model, not from
// these).
//
// The *PerBackend benchmarks pin the SIMD kernel backend (sv/simd/) per
// run: the backend index is the last benchmark argument and the run's label
// names it. Unsupported backends are skipped on this host, not failed.
// JSON output comes from google-benchmark itself:
//   micro_kernels --benchmark_out=kernels.json --benchmark_out_format=json
//
// BM_ParCrossover and BM_ParReduce calibrate the constants of the parallel
// layer (common/par.hpp, docs/THREADING.md):
//   micro_kernels --benchmark_filter=BM_Par
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "circuit/matrix.hpp"
#include "common/par.hpp"
#include "sv/kernels.hpp"
#include "sv/simd/simd.hpp"
#include "sv/statevector.hpp"

namespace qsv {
namespace {

constexpr int kQubits = 18;  // 256k amplitudes: fits comfortably in RAM

template <class S>
BasicStateVector<S> prepared() {
  BasicStateVector<S> sv(kQubits);
  Rng rng(1);
  sv.init_random_state(rng);
  return sv;
}

template <class S>
void BM_Hadamard(benchmark::State& state) {
  auto sv = prepared<S>();
  const Gate g = make_h(static_cast<qubit_t>(state.range(0)));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sv.num_amps()) *
                          static_cast<std::int64_t>(2 * kBytesPerAmp));
}
BENCHMARK(BM_Hadamard<SoaStorage>)->Arg(0)->Arg(8)->Arg(17);
BENCHMARK(BM_Hadamard<AosStorage>)->Arg(0)->Arg(8)->Arg(17);

template <class S>
void BM_ControlledPhase(benchmark::State& state) {
  auto sv = prepared<S>();
  const Gate g = make_cphase(3, 11, 0.37);
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ControlledPhase<SoaStorage>);
BENCHMARK(BM_ControlledPhase<AosStorage>);

template <class S>
void BM_FusedPhaseLayer(benchmark::State& state) {
  auto sv = prepared<S>();
  std::vector<qubit_t> controls;
  std::vector<real_t> angles;
  for (qubit_t c = 1; c < kQubits; ++c) {
    controls.push_back(c);
    angles.push_back(0.01 * c);
  }
  const Gate g = make_fused_phase(0, controls, angles);
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FusedPhaseLayer<SoaStorage>);
BENCHMARK(BM_FusedPhaseLayer<AosStorage>);

template <class S>
void BM_LocalSwap(benchmark::State& state) {
  auto sv = prepared<S>();
  const Gate g = make_swap(2, static_cast<qubit_t>(state.range(0)));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LocalSwap<SoaStorage>)->Arg(9)->Arg(17);
BENCHMARK(BM_LocalSwap<AosStorage>)->Arg(9)->Arg(17);

/// Pins the backend named by `arg`; returns false (after marking the run
/// skipped) when this host cannot execute it.
bool pin_backend(benchmark::State& state, std::int64_t arg) {
  const auto b = static_cast<simd::Backend>(arg);
  if (!simd::backend_supported(b)) {
    state.SkipWithError("backend not supported on this host");
    return false;
  }
  simd::set_active_backend(b);
  state.SetLabel(simd::backend_name(b));
  return true;
}

void register_backend_args(benchmark::internal::Benchmark* bench) {
  for (int b = 0; b < simd::kBackendCount; ++b) {
    bench->Args({8, b});  // mid target; shuffle paths are covered at 0/1
    bench->Args({0, b});
  }
}

template <class S>
void BM_Matrix1PerBackend(benchmark::State& state) {
  auto sv = prepared<S>();
  if (!pin_backend(state, state.range(1))) {
    return;
  }
  const Gate g = make_h(static_cast<qubit_t>(state.range(0)));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  simd::set_active_backend(simd::best_backend());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sv.num_amps()) *
                          static_cast<std::int64_t>(2 * kBytesPerAmp));
}
BENCHMARK(BM_Matrix1PerBackend<SoaStorage>)->Apply(register_backend_args);
BENCHMARK(BM_Matrix1PerBackend<AosStorage>)->Apply(register_backend_args);

template <class S>
void BM_Matrix2PerBackend(benchmark::State& state) {
  auto sv = prepared<S>();
  if (!pin_backend(state, state.range(1))) {
    return;
  }
  Rng rng(9);
  const Gate g = make_unitary2(static_cast<qubit_t>(state.range(0)),
                               static_cast<qubit_t>(state.range(0)) + 3,
                               random_unitary2_params(rng));
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  simd::set_active_backend(simd::best_backend());
}
BENCHMARK(BM_Matrix2PerBackend<SoaStorage>)->Apply(register_backend_args);
BENCHMARK(BM_Matrix2PerBackend<AosStorage>)->Apply(register_backend_args);

template <class S>
void BM_RzPerBackend(benchmark::State& state) {
  auto sv = prepared<S>();
  if (!pin_backend(state, state.range(1))) {
    return;
  }
  const Gate g = make_rz(static_cast<qubit_t>(state.range(0)), 0.41);
  for (auto _ : state) {
    sv.apply(g);
    benchmark::ClobberMemory();
  }
  simd::set_active_backend(simd::best_backend());
}
BENCHMARK(BM_RzPerBackend<SoaStorage>)->Apply(register_backend_args);
BENCHMARK(BM_RzPerBackend<AosStorage>)->Apply(register_backend_args);

template <class S>
void BM_GatherHalf(benchmark::State& state) {
  auto sv = prepared<S>();
  std::vector<std::byte> buf(kern::half_payload_bytes(sv.num_amps()));
  for (auto _ : state) {
    kern::gather_half(sv.storage(), 5, 1, buf.data());
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_GatherHalf<SoaStorage>);
BENCHMARK(BM_GatherHalf<AosStorage>);

/// One memory-bound loop over 2^k amplitudes: a Hadamard on the top qubit
/// of a split re/im register (contiguous pair halves, as the vector
/// backends stream them). Second argument 0 runs it on the calling thread,
/// 1 splits it across the full width with no grain. par::kAmpGrain is the
/// per-thread share where the split starts to win.
void BM_ParCrossover(benchmark::State& state) {
  const std::int64_t n = std::int64_t{1} << state.range(0);
  const std::int64_t h = n / 2;
  const bool split = state.range(1) != 0;
  std::vector<real_t> re(static_cast<std::size_t>(n), 0.5);
  std::vector<real_t> im(static_cast<std::size_t>(n), 0.25);
  const real_t c = 0.7071067811865476;
  for (auto _ : state) {
    par::for_range(h, split ? 1 : h, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t k = lo; k < hi; ++k) {
        const real_t a0r = re[k], a0i = im[k];
        const real_t a1r = re[k + h], a1i = im[k + h];
        re[k] = c * (a0r + a1r);
        im[k] = c * (a0i + a1i);
        re[k + h] = c * (a0r - a1r);
        im[k + h] = c * (a0i - a1i);
      }
    });
    benchmark::ClobberMemory();
  }
  state.SetLabel(split ? "split w=" + std::to_string(par::width()) : "serial");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          static_cast<std::int64_t>(2 * kBytesPerAmp));
}
BENCHMARK(BM_ParCrossover)
    ->ArgsProduct({benchmark::CreateDenseRange(10, 20, 1), {0, 1}});

/// A norm over 2^k amplitudes: argument 0 is the plain serial loop,
/// 1 is par::reduce (kReduceBlock blocks, kAmpGrain grain, full width).
/// Small registers show what the blocking costs, large ones what it buys.
void BM_ParReduce(benchmark::State& state) {
  const std::int64_t n = std::int64_t{1} << state.range(0);
  std::vector<real_t> x(static_cast<std::size_t>(n), 1e-3);
  const auto block_sum = [&](std::int64_t lo, std::int64_t hi) {
    real_t s = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      s += x[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
    }
    return s;
  };
  for (auto _ : state) {
    const real_t s = state.range(1) == 0
                         ? block_sum(0, n)
                         : par::reduce(n, par::kAmpGrain, block_sum);
    benchmark::DoNotOptimize(s);
  }
  state.SetLabel(state.range(1) == 0 ? "serial loop" : "par::reduce");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          static_cast<std::int64_t>(sizeof(real_t)));
}
BENCHMARK(BM_ParReduce)
    ->ArgsProduct({{10, 12, 14, 16, 18, 20, 22}, {0, 1}});

}  // namespace
}  // namespace qsv
