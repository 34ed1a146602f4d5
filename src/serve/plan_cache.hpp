// The transpiled-plan cache: repeated circuits pay transpile + sweep
// planning + trace pricing once, ever.
//
// Keyed by (CRC-32 of the serialized circuit text, qubit count, rank count,
// transpile flag) — the circuit/serialize + CRC-32 machinery gives the key
// for free, and qubits/ranks pin the decomposition the plan was made for
// (sweep runs depend on the local-qubit split; the priced estimate depends
// on the node count). Entries are immutable and shared: concurrent jobs
// execute the same plan object without copying.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/sweep_plan.hpp"
#include "dist/options.hpp"
#include "machine/job.hpp"
#include "perf/report.hpp"

namespace qsv::serve {

struct PlanKey {
  std::uint32_t circuit_crc = 0;
  int num_qubits = 0;
  int ranks = 0;
  bool transpile = true;

  auto operator<=>(const PlanKey&) const = default;
};

/// Everything derived from one (circuit, decomposition) pair. Immutable
/// after construction.
struct CachedPlan {
  explicit CachedPlan(Circuit c) : circuit(std::move(c)) {}

  /// The (possibly cache-blocking-transpiled) circuit the executor runs.
  Circuit circuit;
  /// The job configuration and engine options the plan was priced under;
  /// the executor runs and prices deadline prefixes with these same values.
  JobConfig job;
  DistOptions opts;
  /// Sweep runs planned at this decomposition's local qubit count.
  std::vector<GateRun> runs;
  /// Modeled full-circuit cost on the server's machine model (admission's
  /// energy check, and the fleet's joules/request accounting).
  RunReport estimate;
  /// Whether the transpiler changed the circuit (reported for the record).
  bool transpiled = false;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Builds that ran the transpiler (== misses with transpile requested).
  std::uint64_t transpiles = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
};

/// Bounded LRU cache of CachedPlan, thread-safe. Capacity 0 disables
/// caching entirely (every lookup is a miss and nothing is stored) — the
/// loadgen's cache-off ablation.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached plan for `key`, or builds one with `build` (called
  /// without the lock held — two threads may race to build the same entry;
  /// the first insert wins and the loser's build is discarded). `build`
  /// reports whether it ran the transpiler via its return value's
  /// `transpiled` field; the transpile counter counts builds that asked.
  [[nodiscard]] std::shared_ptr<const CachedPlan> get_or_build(
      const PlanKey& key,
      const std::function<std::shared_ptr<const CachedPlan>()>& build);

  [[nodiscard]] PlanCacheStats stats() const;

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<PlanKey> lru_;  // front = most recent
  std::map<PlanKey,
           std::pair<std::shared_ptr<const CachedPlan>,
                     std::list<PlanKey>::iterator>>
      entries_;
  PlanCacheStats stats_;
};

}  // namespace qsv::serve
