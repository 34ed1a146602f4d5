// qsvbench — companion program of the repository benchmark (perfbench/run.py).
//
//   qsvbench gen < SPEC
//       One circuit per SPEC line, "KIND QUBITS PARAM SEED PATH", written in
//       the circuit text format from the library's own builders:
//         qft    PARAM = low qubits given a seeded ry input rotation, then
//                build_qft(QUBITS) with the builder's defaults
//         rcs    PARAM = depth of build_rcs(QUBITS, PARAM, Rng(SEED))
//         random PARAM = gate count of build_random(QUBITS, PARAM, Rng(SEED))
//         empty  zero gates (the fixed cost every job pays)
//
//   qsvbench trace CIRCUIT --ranks R [--threads T] [--policy P]
//                  [--chrome OUT.json] [--no-observables]
//       Repeats `qsv run CIRCUIT` in-process through the library's public
//       calls, with the options the CLI sets, and records a span around each
//       call. --no-observables leaves out the <Z> pass, as a served job
//       does. Prints one JSON line: per-layer self times, counters, the
//       digest and <Z> lines (formatted exactly as `qsv run` prints them),
//       and the trace engine's price of the same circuit. Spans are kept in
//       memory and written at the end as Chrome trace-event JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/locality.hpp"
#include "circuit/serialize.hpp"
#include "circuit/sweep_plan.hpp"
#include "common/crc32.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/observables.hpp"
#include "dist/trace.hpp"
#include "machine/archer2.hpp"
#include "perf/cost_model.hpp"
#include "sv/storage.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// In-memory span recorder: name, start, end, parent, job id.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
    int job = 0;
  };

  explicit Tracer(int job) : job_(job), t0_(Clock::now()) {}

  int begin(std::string name) {
    spans_.push_back({std::move(name), now(), 0.0,
                      open_.empty() ? -1 : open_.back(), job_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end() {
    spans_[static_cast<std::size_t>(open_.back())].end_s = now();
    open_.pop_back();
  }
  template <class F>
  auto span(std::string name, F&& body) {
    begin(std::move(name));
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      end();
    } else {
      auto out = body();
      end();
      return out;
    }
  }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span named `name`: its duration minus the part its
  /// direct children cover (children run sequentially inside the parent).
  [[nodiscard]] double self_s(const std::string& name) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        total += spans_[i].end_s - spans_[i].start_s - child[i];
      }
    }
    return total;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << fmt_us(s.start_s) << ",\"dur\":" << fmt_us(s.end_s - s.start_s)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"job\":" << s.job << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  static std::string fmt_us(double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", s * 1e6);
    return buf;
  }

  int job_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

std::string arg_value(int argc, char** argv, const std::string& flag,
                      const std::string& fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return fallback;
}

qsv::CommPolicy parse_policy(const std::string& s) {
  if (s == "nonblocking") return qsv::CommPolicy::kNonBlocking;
  if (s == "overlapped") return qsv::CommPolicy::kOverlapped;
  if (s == "blocking") return qsv::CommPolicy::kBlocking;
  throw std::runtime_error("unknown policy '" + s + "'");
}

int cmd_gen() {
  std::string kind;
  int qubits = 0;
  int param = 0;
  std::uint64_t seed = 0;
  std::string path;
  while (std::cin >> kind >> qubits >> param >> seed >> path) {
    qsv::Rng rng(seed);
    qsv::Circuit c(qubits);
    if (kind == "qft") {
      for (int q = 0; q < param; ++q) {
        c.add(qsv::make_ry(q, rng.uniform(0.0, 3.141592653589793)));
      }
      const qsv::Circuit qft = qsv::build_qft(qubits);
      for (const qsv::Gate& g : qft.gates()) c.add(g);
    } else if (kind == "rcs") {
      c = qsv::build_rcs(qubits, param, rng);
    } else if (kind == "random") {
      c = qsv::build_random(qubits, param, rng);
    } else if (kind != "empty") {
      std::cerr << "qsvbench gen: unknown kind '" << kind << "'\n";
      return 2;
    }
    c.set_name(kind + std::to_string(qubits) + "_s" + std::to_string(seed));
    qsv::save_circuit(path, c);
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: qsvbench trace CIRCUIT --ranks R ...\n";
    return 2;
  }
  const std::string path = argv[2];
  const int ranks = std::stoi(arg_value(argc, argv, "--ranks", "4"));
  const std::string chrome = arg_value(argc, argv, "--chrome", "");
  const bool observables =
      std::find(argv, argv + argc, std::string("--no-observables")) ==
      argv + argc;

  // The options `qsv run` sets from its defaults and flags.
  qsv::DistOptions opts;
  opts.sweep.enabled = true;
  opts.sweep.tile_qubits = qsv::kDefaultSweepTileQubits;
  opts.policy = parse_policy(arg_value(argc, argv, "--policy", "blocking"));
  opts.threading.threads = std::stoi(arg_value(argc, argv, "--threads", "0"));

  Tracer tr(/*job=*/1);
  const double job_start = tr.now();
  const qsv::Circuit c =
      tr.span("circuit.parse", [&] { return qsv::load_circuit(path); });
  const int n = c.num_qubits();
  auto sv = tr.span("dist.alloc", [&] {
    return std::make_unique<qsv::DistStateVector<qsv::SoaStorage>>(n, ranks,
                                                                   opts);
  });
  const int local = sv->local_qubits();
  const std::vector<qsv::GateRun> runs = tr.span("circuit.plan", [&] {
    return qsv::plan_sweep_runs(c.gates(), local, opts.sweep);
  });

  std::uint64_t gates_tiled = 0, gates_local = 0, gates_exchange = 0;
  std::uint64_t untiled_passes = 0;
  tr.span("dist.apply", [&] {
    for (const qsv::GateRun& run : runs) {
      std::uint64_t dist = 0;
      for (std::size_t i = run.first; i < run.first + run.count; ++i) {
        if (qsv::classify_gate(c.gate(i), local) ==
            qsv::GateLocality::kDistributed) {
          ++dist;
        }
      }
      gates_exchange += dist;
      const char* layer = "dist.local";
      if (dist > 0) {
        layer = "dist.exchange";
        gates_local += run.count - dist;
      } else if (run.sweep) {
        layer = "dist.sweep";
        gates_tiled += run.count;
      } else {
        gates_local += run.count;
        untiled_passes += run.count;
      }
      tr.span(layer, [&] { sv->apply_run(c, run); });
    }
  });

  std::vector<std::string> z(observables ? static_cast<std::size_t>(n) : 0);
  if (observables) {
    tr.span("dist.observables", [&] {
      for (qsv::qubit_t q = 0; q < n; ++q) {
        qsv::PauliTerm term;
        term.factors = {{q, qsv::Pauli::kZ}};
        z[static_cast<std::size_t>(q)] =
            qsv::fmt::fixed(qsv::expectation(*sv, term), 4);
      }
    });
  }

  const std::string digest = tr.span("dist.digest", [&] {
    qsv::Crc32 crc;
    for (qsv::amp_index g = 0; g < (qsv::amp_index{1} << n); ++g) {
      const qsv::cplx a = sv->amplitude(g);
      const double re = a.real();
      const double im = a.imag();
      crc.update(&re, sizeof re);
      crc.update(&im, sizeof im);
    }
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", crc.value());
    return std::string(buf);
  });
  const double job_end = tr.now();

  // Trace engine price of the same circuit on the ARCHER2 model.
  qsv::RunReport report;
  qsv::CommStats modeled;
  tr.span("perf.price", [&] {
    qsv::JobConfig job;
    job.num_qubits = n;
    job.nodes = ranks;
    qsv::TraceSim sim(n, ranks, opts);
    qsv::CostModel cost(qsv::archer2(), job);
    sim.set_listener(&cost);
    sim.apply(c);
    report = cost.report();
    modeled = sim.comm_stats();
  });

  const qsv::CommStats& cs = sv->comm_stats();
  const qsv::SweepStats& sw = sv->sweep_stats();

  // CRC throughput over one message-sized buffer (a 16 MiB stand-in when
  // the run sent no messages), best of 5.
  const std::size_t msg_bytes =
      cs.messages > 0 ? static_cast<std::size_t>(cs.bytes / cs.messages)
                      : std::size_t{16} << 20;
  std::vector<unsigned char> buf(msg_bytes);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 2654435761u >> 13);
  }
  double best_crc_s = 1e30;
  std::uint32_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    sink ^= qsv::crc32(buf.data(), buf.size());
    best_crc_s = std::min(
        best_crc_s,
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const double crc_gbps = static_cast<double>(msg_bytes) / best_crc_s / 1e9;

  const double total_s = job_end - job_start;
  double top_s = 0;
  for (const Tracer::Span& s : tr.spans()) {
    if (s.parent < 0 && s.end_s <= job_end) top_s += s.end_s - s.start_s;
  }
  const double sweep_s = tr.self_s("dist.sweep");
  const double local_s = tr.self_s("dist.local");
  const double exchange_s = tr.self_s("dist.exchange");
  const double state_bytes =
      static_cast<double>(qsv::amp_index{1} << n) * qsv::kBytesPerAmp;
  const double passes =
      static_cast<double>(untiled_passes + sw.swept_gates - sw.passes_saved);

  std::ostringstream o;
  o.precision(17);
  o << "{\"digest\":\"" << digest << "\",\"z\":[";
  for (std::size_t q = 0; q < z.size(); ++q) {
    o << (q ? "," : "") << "\"" << z[q] << "\"";
  }
  o << "],\"layers\":{"
    << "\"circuit.parse_s\":" << tr.self_s("circuit.parse")
    << ",\"circuit.plan_s\":" << tr.self_s("circuit.plan")
    << ",\"dist.alloc_s\":" << tr.self_s("dist.alloc")
    << ",\"dist.sweep_s\":" << sweep_s << ",\"dist.local_s\":" << local_s
    << ",\"dist.exchange_s\":" << exchange_s
    << ",\"dist.apply_self_s\":" << tr.self_s("dist.apply")
    << ",\"dist.observables_s\":" << tr.self_s("dist.observables")
    << ",\"dist.digest_s\":" << tr.self_s("dist.digest")
    << ",\"perf.price_s\":" << tr.self_s("perf.price")
    << ",\"trace.total_s\":" << total_s
    << ",\"trace.coverage\":" << (total_s > 0 ? top_s / total_s : 0.0)
    << "},\"counts\":{"
    << "\"sv.tiled_runs\":" << sw.runs
    << ",\"sv.passes_saved\":" << sw.passes_saved
    << ",\"dist.gates_tiled\":" << gates_tiled
    << ",\"dist.gates_local\":" << gates_local
    << ",\"dist.gates_exchange\":" << gates_exchange
    << ",\"cluster.messages\":" << cs.messages
    << ",\"cluster.bytes\":" << cs.bytes
    << ",\"cluster.delivered\":" << cs.delivered
    << ",\"cluster.checksum_failures\":" << cs.checksum_failures
    << ",\"model.messages\":" << modeled.messages
    << ",\"model.bytes\":" << modeled.bytes << "},"
    << "\"common.crc32_gbps\":" << crc_gbps
    << ",\"crc_message_bytes\":" << msg_bytes
    << ",\"crc_sink\":" << sink
    << ",\"state_bytes\":" << state_bytes
    << ",\"passes\":" << passes
    << ",\"perf.model_runtime_s\":" << report.runtime_s
    << ",\"perf.model_energy_j\":" << report.total_energy_j() << "}";
  std::cout << o.str() << "\n";

  if (!chrome.empty()) tr.write_chrome(chrome);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "gen") return cmd_gen();
    if (cmd == "trace") return cmd_trace(argc, argv);
    std::cerr << "usage: qsvbench gen < SPEC | qsvbench trace CIRCUIT ...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "qsvbench: " << e.what() << "\n";
    return 1;
  }
}
