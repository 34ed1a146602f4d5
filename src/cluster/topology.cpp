#include "cluster/topology.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace qsv {

std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::istringstream in(text);
  std::string range;
  while (std::getline(in, range, ',')) {
    const auto b = range.find_first_not_of(" \t\n");
    if (b == std::string::npos) {
      continue;
    }
    const auto e = range.find_last_not_of(" \t\n");
    const std::string token = range.substr(b, e - b + 1);
    const auto dash = token.find('-');
    int lo = 0;
    int hi = 0;
    std::istringstream first(token.substr(0, dash));
    first >> lo;
    QSV_REQUIRE(!first.fail(), "cpulist: bad token '" + token + "'");
    if (dash == std::string::npos) {
      hi = lo;
    } else {
      std::istringstream second(token.substr(dash + 1));
      second >> hi;
      QSV_REQUIRE(!second.fail() && hi >= lo,
                  "cpulist: bad range '" + token + "'");
    }
    for (int c = lo; c <= hi; ++c) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

HostTopology discover_host_topology() {
  HostTopology topo;
#if defined(__linux__)
  // Node ids are not guaranteed contiguous; probe with a generous bound.
  for (int node = 0; node < 256; ++node) {
    std::ifstream in("/sys/devices/system/node/node" + std::to_string(node) +
                     "/cpulist");
    if (!in) {
      continue;
    }
    std::string line;
    std::getline(in, line);
    std::vector<int> cpus = parse_cpulist(line);
    if (cpus.empty()) {
      continue;  // memory-only node: no thread can live there
    }
    NumaDomain d;
    d.id = node;
    d.cpus = std::move(cpus);
    topo.domains.push_back(std::move(d));
  }
  topo.from_sysfs = !topo.domains.empty();
#endif
  if (topo.domains.empty()) {
    NumaDomain d;
    d.id = 0;
    const int n = std::max(1u, std::thread::hardware_concurrency());
    for (int c = 0; c < n; ++c) {
      d.cpus.push_back(c);
    }
    topo.domains.push_back(std::move(d));
  }
  for (const NumaDomain& d : topo.domains) {
    topo.total_cpus += static_cast<int>(d.cpus.size());
  }
  return topo;
}

const char* placement_policy_name(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kCompact: return "compact";
    case PlacementPolicy::kScatter: return "scatter";
    case PlacementPolicy::kNone: return "none";
  }
  return "?";
}

std::optional<PlacementPolicy> parse_placement_policy(
    const std::string& text) {
  if (text == "compact") return PlacementPolicy::kCompact;
  if (text == "scatter") return PlacementPolicy::kScatter;
  if (text == "none") return PlacementPolicy::kNone;
  return std::nullopt;
}

PlacementPlan plan_placement(const HostTopology& topo, int num_ranks,
                             PlacementPolicy policy) {
  QSV_REQUIRE(num_ranks >= 1, "placement needs at least one rank");
  QSV_REQUIRE(!topo.domains.empty(), "placement needs at least one domain");
  PlacementPlan plan;
  plan.policy = policy;
  plan.domain_of_rank.resize(static_cast<std::size_t>(num_ranks));
  if (policy != PlacementPolicy::kNone) {
    plan.cpu_of_rank.resize(static_cast<std::size_t>(num_ranks));
  }

  const int domains = static_cast<int>(topo.domains.size());
  int host_cpus = 0;
  for (const NumaDomain& d : topo.domains) {
    host_cpus += static_cast<int>(d.cpus.size());
  }
  QSV_REQUIRE(host_cpus >= 1, "placement needs at least one CPU");
  for (int r = 0; r < num_ranks; ++r) {
    int di = 0;
    int cpu = 0;
    if (policy == PlacementPolicy::kScatter) {
      // Scatter round-robins ranks across domains; each domain hands out
      // its CPUs in order, wrapping when ranks outnumber them
      // (oversubscription still gets a stable assignment).
      di = r % domains;
      const NumaDomain& d = topo.domains[static_cast<std::size_t>(di)];
      cpu = d.cpus[static_cast<std::size_t>(r / domains) % d.cpus.size()];
    } else {
      // Compact exhausts a domain's CPUs before spilling to the next, so
      // co-resident ranks share an LLC and exchange pairs stay local as
      // long as a domain has room; ranks beyond the host's CPU count wrap
      // back to domain 0. kNone uses the same domain map so cross-domain
      // pricing has a defined answer.
      int slot = r % host_cpus;
      while (slot >=
             static_cast<int>(topo.domains[static_cast<std::size_t>(di)]
                                  .cpus.size())) {
        slot -= static_cast<int>(
            topo.domains[static_cast<std::size_t>(di)].cpus.size());
        ++di;
      }
      cpu = topo.domains[static_cast<std::size_t>(di)]
                .cpus[static_cast<std::size_t>(slot)];
    }
    plan.domain_of_rank[static_cast<std::size_t>(r)] = di;
    if (policy != PlacementPolicy::kNone) {
      plan.cpu_of_rank[static_cast<std::size_t>(r)] = cpu;
    }
  }
  return plan;
}

bool pin_current_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

namespace {

#if defined(__linux__)
/// Streams `buf` once and returns the elapsed seconds (memcpy into a small
/// sink so the reads cannot be optimised away).
double time_stream(const std::vector<char>& buf) {
  char sink[64];
  volatile char keep = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i + sizeof sink <= buf.size(); i += 4096) {
    std::memcpy(sink, buf.data() + i, sizeof sink);
    // A volatile store depending on the sink keeps the loop live.
    keep = static_cast<char>(keep ^ sink[0]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Saves/restores the caller's affinity around a pinned probe.
struct AffinityGuard {
  cpu_set_t saved;
  bool valid;
  AffinityGuard() {
    valid =
        pthread_getaffinity_np(pthread_self(), sizeof saved, &saved) == 0;
  }
  ~AffinityGuard() {
    if (valid) {
      pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
    }
  }
};
#endif

}  // namespace

double measure_numa_bandwidth_ratio(const HostTopology& topo,
                                    std::size_t probe_bytes) {
  if (topo.domains.size() < 2 || topo.domains[0].cpus.empty() ||
      topo.domains[1].cpus.empty()) {
    return 1.0;
  }
#if defined(__linux__)
  AffinityGuard guard;
  // First-touch the buffer from domain 0, then stream it from a domain-0
  // CPU (local) and a domain-1 CPU (remote). The ratio of the two times is
  // the penalty factor for cross-domain exchange traffic.
  if (!pin_current_thread(topo.domains[0].cpus.front())) {
    return 1.0;
  }
  std::vector<char> buf(probe_bytes, 1);
  // Warm + local pass.
  time_stream(buf);
  const double local_s = time_stream(buf);
  if (!pin_current_thread(topo.domains[1].cpus.front())) {
    return 1.0;
  }
  const double remote_s = time_stream(buf);
  if (local_s <= 0 || remote_s <= 0) {
    return 1.0;
  }
  return std::max(1.0, remote_s / local_s);
#else
  (void)probe_bytes;
  return 1.0;
#endif
}

}  // namespace qsv
