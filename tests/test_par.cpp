// The parallel-execution layer (common/par.hpp): for_range coverage and
// serial fallbacks, reduce's width-independent bits, and the width rule as
// RankTeam applies it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/rank_team.hpp"
#include "cluster/topology.hpp"
#include "common/par.hpp"
#include "common/rng.hpp"
#include "sv/statevector.hpp"

namespace qsv {
namespace {

/// Sets this thread's width for one scope.
class WidthGuard {
 public:
  explicit WidthGuard(int w) : saved_(par::width()) { par::set_width(w); }
  ~WidthGuard() { par::set_width(saved_); }
  WidthGuard(const WidthGuard&) = delete;
  WidthGuard& operator=(const WidthGuard&) = delete;

 private:
  int saved_;
};

/// Widths 1..CPU count, and at least up to 4 so the parallel path runs
/// even on a one-CPU host.
std::vector<int> widths() {
  const int cpus =
      std::max(4, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> w;
  for (int i = 1; i <= cpus; ++i) {
    w.push_back(i);
  }
  return w;
}

TEST(ParForRange, VisitsEveryIndexExactlyOnce) {
  constexpr std::int64_t g = par::kAmpGrain;
  for (const int w : {1, 2, 4}) {
    WidthGuard guard(w);
    for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1}, g - 1, g,
                                 g + 1, std::int64_t{1} << 20}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      std::atomic<int> calls{0};
      par::for_range(n, g, [&](std::int64_t lo, std::int64_t hi) {
        ++calls;
        for (std::int64_t i = lo; i < hi; ++i) {
          ++hits[static_cast<std::size_t>(i)];
        }
      });
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "n=" << n << " width=" << w << " index " << i;
      }
      // Each thread takes at least a grain, and none runs for n = 0.
      EXPECT_LE(calls.load(), std::max<std::int64_t>(1, n / g));
      EXPECT_EQ(calls.load() == 0, n == 0);
    }
  }
}

TEST(ParForRange, BelowTheGrainRunsOnTheCallingThread) {
  WidthGuard guard(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::thread::id ran_on;
  par::for_range(100, 64, [&](std::int64_t lo, std::int64_t hi) {
    ranges.emplace_back(lo, hi);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ranges, (std::vector<std::pair<std::int64_t, std::int64_t>>{
                        {0, 100}}));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ParForRange, NestedCallRunsSerially) {
  WidthGuard guard(4);
  constexpr std::int64_t inner_n = std::int64_t{1} << 20;
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> inner;
  par::for_range(4, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t o = lo; o < hi; ++o) {
      par::for_range(inner_n, 1, [&](std::int64_t a, std::int64_t b) {
        std::lock_guard<std::mutex> lk(m);
        inner.emplace_back(a, b);
      });
    }
  });
  // Whether or not the outer loop forked, every inner loop is one call.
  // When the outer loop did fork, its bodies ran inside a parallel region
  // and the inner loops had to stay serial.
  ASSERT_EQ(inner.size(), 4u);
  for (const auto& r : inner) {
    EXPECT_EQ(r, (std::pair<std::int64_t, std::int64_t>{0, inner_n}));
  }
}

TEST(ParReduce, SumsBlocksInOrderAtEveryWidth) {
  constexpr std::int64_t n = (std::int64_t{1} << 18) + 12345;
  std::vector<double> x(static_cast<std::size_t>(n));
  Rng rng(3);
  for (double& v : x) {
    v = rng.uniform(-1, 1) * std::pow(10.0, rng.uniform(-8, 8));
  }
  const auto block_sum = [&](std::int64_t lo, std::int64_t hi) {
    double s = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      s += x[static_cast<std::size_t>(i)];
    }
    return s;
  };
  // The contract, written out: fixed blocks summed in index order, then the
  // partials added in block order.
  double want = 0;
  for (std::int64_t lo = 0; lo < n; lo += par::kReduceBlock) {
    want += block_sum(lo, std::min(n, lo + par::kReduceBlock));
  }
  for (const int w : widths()) {
    WidthGuard guard(w);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  par::reduce(n, par::kAmpGrain, block_sum)),
              std::bit_cast<std::uint64_t>(want))
        << "width " << w;
  }
  EXPECT_EQ(par::reduce(0, par::kAmpGrain, block_sum), 0.0);
}

template <class S>
void expect_reductions_width_independent() {
  BasicStateVector<S> sv(18);
  Rng rng(17);
  sv.init_random_state(rng);
  std::uint64_t norm = 0;
  std::vector<std::uint64_t> p1(18);
  for (const int w : widths()) {
    WidthGuard guard(w);
    const std::uint64_t got = std::bit_cast<std::uint64_t>(sv.norm_sq());
    if (w == 1) {
      norm = got;
    }
    EXPECT_EQ(got, norm) << "norm_sq at width " << w;
    for (qubit_t q = 0; q < 18; ++q) {
      const std::uint64_t p =
          std::bit_cast<std::uint64_t>(sv.probability_of_one(q));
      if (w == 1) {
        p1[static_cast<std::size_t>(q)] = p;
      }
      EXPECT_EQ(p, p1[static_cast<std::size_t>(q)])
          << "probability_of_one(" << q << ") at width " << w;
    }
  }
}

TEST(ParReduce, StateVectorReductionsSameBitsAtEveryWidth) {
  expect_reductions_width_independent<SoaStorage>();
  expect_reductions_width_independent<AosStorage>();
}

TEST(ParWidth, ShareSplitsTheCallersWidth) {
  WidthGuard guard(8);
  EXPECT_EQ(par::width(), 8);
  EXPECT_EQ(par::share(1), 8);
  EXPECT_EQ(par::share(3), 2);
  EXPECT_EQ(par::share(4), 2);
  EXPECT_EQ(par::share(16), 1);
  par::set_width(0);
  EXPECT_EQ(par::width(), 1);
}

TEST(ParWidth, RankTeamWorkersGetTheirCreatorsShare) {
  const PlacementPlan plan =
      plan_placement(discover_host_topology(), 4, PlacementPolicy::kNone);
  for (const auto& [creator, want] :
       {std::pair{8, 2}, std::pair{4, 1}, std::pair{3, 1}, std::pair{12, 3}}) {
    WidthGuard guard(creator);
    RankTeam team(4, plan);
    std::vector<int> got(4, 0);
    team.run(4, [&](int r) {
      got[static_cast<std::size_t>(r)] = par::width();
    });
    EXPECT_EQ(got, std::vector<int>(4, want)) << "creator width " << creator;
  }
}

}  // namespace
}  // namespace qsv
