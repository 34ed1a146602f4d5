// Characterization of the distributed exchange under message faults. A small
// chunked register runs a circuit holding every exchange shape (a kMatrix1
// exchange, a one-high SWAP as a full or a half exchange, a two-high SWAP);
// every message ordinal is then dropped and corrupted in turn, under every
// comm policy, on the serial and the threaded engine. Each faulted run must
// recover the clean run's `state crc32`, and
// the per-gate retry charges, the transport counters and the injector totals
// of the whole sweep are pinned to a recorded table. A change to the
// exchange's send or receive order, its retry unit or any retry charge moves
// a fingerprint here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "cluster/faults.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/events.hpp"

namespace qsv {
namespace {

constexpr int kQubits = 6;
constexpr int kRanks = 4;
// Two amplitudes per message: the 16-amplitude slices stream as 8 chunks
// per direction, the 128-byte half payloads as 4.
constexpr std::size_t kCapBytes = 32;

/// Every exchange shape over 4 ranks (local qubits 0..3, rank qubits 4..5),
/// applied to a dense random state. The one-high SWAP runs as a full or a
/// half exchange depending on DistOptions::half_exchange_swaps. The circuit
/// is kept to three exchanges: the serial sweeps run it once per message.
Circuit exchange_circuit() {
  Circuit c(kQubits, "exchange_mix");
  c.add(make_h(5));        // kMatrix1 on the top rank bit: every rank moves
  c.add(make_swap(1, 5));  // one-high SWAP, partner align 2^2
  c.add(make_swap(4, 5));  // two-high SWAP: only ranks 1 and 2 move
  return c;
}

struct Config {
  bool threaded = false;
  CommPolicy policy = CommPolicy::kBlocking;
  bool half = false;  // one-high SWAPs as half exchanges
};

std::string config_name(const Config& cfg) {
  const char* policy = cfg.policy == CommPolicy::kBlocking      ? "blocking"
                       : cfg.policy == CommPolicy::kNonBlocking ? "nonblocking"
                                                                : "overlapped";
  return std::string(cfg.threaded ? "threaded" : "serial") + "/" + policy +
         "/" + (cfg.half ? "half" : "full");
}

DistOptions options_for(const Config& cfg) {
  DistOptions o;
  o.policy = cfg.policy;
  o.half_exchange_swaps = cfg.half;
  o.max_message_bytes = kCapBytes;
  if (cfg.threaded) {
    o.threading.threads = kRanks;
    // Every dropped message costs one watchdog wait on the threaded engine;
    // a short deadline keeps the full sweep fast.
    o.recv_deadline_s = 0.05;
  }
  return o;
}

/// `state crc32` as `qsv run` prints it: CRC-32 over (re, im) doubles in
/// global amplitude order.
std::uint32_t state_crc(const DistStateVectorSoa& sv) {
  Crc32 crc;
  for (amp_index g = 0; g < (amp_index{1} << sv.num_qubits()); ++g) {
    const cplx a = sv.amplitude(g);
    const double re = a.real();
    const double im = a.imag();
    crc.update(&re, sizeof re);
    crc.update(&im, sizeof im);
  }
  return crc.value();
}

/// Folds integers and exact double bit patterns into one CRC-32.
class Fingerprint {
 public:
  void add(std::uint64_t v) { crc_.update(&v, sizeof v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint32_t value() const { return crc_.value(); }

 private:
  Crc32 crc_;
};

/// Fingerprints the event stream: every exchange field and the retry
/// charges of every event, in emission order.
class EventRecorder : public ExecListener {
 public:
  explicit EventRecorder(Fingerprint& fp) : fp_(fp) {}
  void on_event(const ExecEvent& e) override {
    fp_.add(static_cast<std::uint64_t>(e.kind));
    fp_.add(static_cast<std::uint64_t>(e.gate));
    fp_.add(static_cast<std::uint64_t>(e.policy));
    fp_.add(static_cast<std::uint64_t>(e.half_exchange));
    fp_.add(static_cast<std::uint64_t>(e.overlap_chunks));
    fp_.add(static_cast<std::uint64_t>(e.messages_per_rank));
    fp_.add(e.bytes_per_rank);
    fp_.add(e.retry_bytes);
    fp_.add(static_cast<std::uint64_t>(e.retry_messages));
    fp_.add(e.fault_delay_s);
  }

 private:
  Fingerprint& fp_;
};

/// One row of the recorded table: a whole sweep of one fault kind over every
/// message ordinal (serial) or every (ordinal, sender) (threaded).
struct SweepRow {
  std::string name;
  std::uint64_t runs = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_bytes = 0;
  std::uint32_t fingerprint = 0;

  bool operator==(const SweepRow&) const = default;
};

std::string format_row(const SweepRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"%s\", %llu, %llu, %llu, 0x%08xu},",
                r.name.c_str(), static_cast<unsigned long long>(r.runs),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.retry_bytes), r.fingerprint);
  return buf;
}

/// Recorded by running this sweep against the exchange implementation whose
/// behaviour it characterizes. On a mismatch the test prints the observed
/// row in this format.
const std::vector<SweepRow>& recorded_table() {
  static const std::vector<SweepRow> table = {
      {"serial/blocking/full/drop", 80, 80, 5120, 0x2c5aca42u},
      {"serial/blocking/full/corrupt", 80, 80, 5120, 0xac43a8bau},
      {"serial/blocking/full/corrupt+drop", 80, 120, 7680, 0x30faa27cu},
      {"serial/blocking/half/drop", 64, 64, 4096, 0x454a6884u},
      {"serial/blocking/half/corrupt", 64, 64, 4096, 0x96e19a0du},
      {"serial/blocking/half/corrupt+drop", 64, 96, 6144, 0x2f76bbc2u},
      {"serial/nonblocking/full/drop", 80, 80, 40960, 0xa5e21bdcu},
      {"serial/nonblocking/full/corrupt", 80, 80, 40960, 0x317ebce9u},
      {"serial/nonblocking/full/corrupt+drop", 80, 85, 43520, 0xeb0830ecu},
      {"serial/nonblocking/half/drop", 64, 64, 28672, 0x207f6858u},
      {"serial/nonblocking/half/corrupt", 64, 64, 28672, 0x8d69706fu},
      {"serial/nonblocking/half/corrupt+drop", 64, 69, 30720, 0xa07ade16u},
      {"serial/overlapped/full/drop", 80, 80, 5120, 0x5d88e543u},
      {"serial/overlapped/full/corrupt", 80, 80, 5120, 0xdd9187bbu},
      {"serial/overlapped/full/corrupt+drop", 80, 120, 7680, 0x25666996u},
      {"serial/overlapped/half/drop", 64, 64, 4096, 0x457dd642u},
      {"serial/overlapped/half/corrupt", 64, 64, 4096, 0x96d624cbu},
      {"serial/overlapped/half/corrupt+drop", 64, 96, 6144, 0x48dca7b3u},
      {"threaded/blocking/full/drop", 80, 80, 5120, 0x5c8dfaccu},
      {"threaded/blocking/full/corrupt", 80, 80, 5120, 0x69d0ac94u},
      {"threaded/blocking/half/drop", 64, 64, 4096, 0x1fa340bdu},
      {"threaded/blocking/half/corrupt", 64, 64, 4096, 0x396881b5u},
      {"threaded/nonblocking/full/drop", 80, 80, 40960, 0x8fef4f7au},
      {"threaded/nonblocking/full/corrupt", 80, 80, 40960, 0x627cf27bu},
      {"threaded/nonblocking/half/drop", 64, 64, 28672, 0xdc140b81u},
      {"threaded/nonblocking/half/corrupt", 64, 64, 28672, 0x3d10a2dcu},
      {"threaded/overlapped/full/drop", 80, 80, 5120, 0x2d5fd5cdu},
      {"threaded/overlapped/full/corrupt", 80, 80, 5120, 0x18028395u},
      {"threaded/overlapped/half/drop", 64, 64, 4096, 0x1f94fe7bu},
      {"threaded/overlapped/half/corrupt", 64, 64, 4096, 0x395f3f73u},
  };
  return table;
}

const SweepRow* find_row(const std::string& name) {
  for (const SweepRow& r : recorded_table()) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

class ExchangeSweep : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    Rng rng(23);
    ref_.init_random_state(rng);
    DistStateVectorSoa clean(kQubits, kRanks, options_for(GetParam()));
    clean.init_from(ref_);
    clean.apply(circuit_);
    clean_crc_ = state_crc(clean);
  }

  /// Runs the circuit under `spec`; returns false once the spec no longer
  /// fires (its ordinal lies past the run's last message).
  bool run_faulted(const std::string& spec, bool single_fault, SweepRow& row) {
    DistStateVectorSoa sv(kQubits, kRanks, options_for(GetParam()));
    sv.init_from(ref_);
    FaultInjector fi(parse_fault_plan(spec));
    sv.set_fault_injector(&fi);
    Fingerprint fp;
    EventRecorder rec(fp);
    sv.set_listener(&rec);
    sv.apply(circuit_);

    const FaultInjector::Totals& t = fi.totals();
    if (t.dropped + t.corrupted == 0) {
      return false;
    }
    EXPECT_EQ(state_crc(sv), clean_crc_) << spec;
    if (single_fault) {
      EXPECT_EQ(t.retries, 1u) << spec;  // one fault, one retry
    }
    const CommStats& s = sv.comm_stats();
    for (std::uint64_t v : {s.messages, s.bytes, s.delivered,
                            s.checksum_failures, t.dropped, t.corrupted,
                            t.straggled, t.node_failures, t.bitflips,
                            t.revivals, t.retries, t.retry_bytes}) {
      fp.add(v);
    }
    fp.add(t.delay_s);
    row_fp_.add(static_cast<std::uint64_t>(fp.value()));
    ++row.runs;
    row.retries += t.retries;
    row.retry_bytes += t.retry_bytes;
    return true;
  }

  /// Sweeps `kind@M` (serial) or `kind@M:R` for every sender R (threaded)
  /// over every ordinal M, and checks the sweep against its recorded row.
  /// Kind "corrupt+drop" corrupts message M and drops message M+1.
  void sweep(const std::string& kind) {
    const Config& cfg = GetParam();
    SweepRow row;
    row.name = config_name(cfg) + "/" + kind;
    row_fp_ = Fingerprint{};
    const int senders = cfg.threaded ? kRanks : 1;
    const bool pair = kind == "corrupt+drop";
    for (int r = 0; r < senders; ++r) {
      auto fault = [&](const std::string& what, int m) {
        std::string f = what;
        f += '@';
        f += std::to_string(m);
        if (cfg.threaded) {
          f += ':';
          f += std::to_string(r);
        }
        return f;
      };
      for (int m = 1; m < 1000; ++m) {
        std::string spec = fault(pair ? "corrupt" : kind, m);
        if (pair) {
          spec += ',';
          spec += fault("drop", m + 1);
        }
        if (!run_faulted(spec, !pair, row)) {
          break;
        }
      }
    }
    row.fingerprint = row_fp_.value();
    EXPECT_GE(row.runs, 16u) << row.name;

    const SweepRow* want = find_row(row.name);
    ASSERT_NE(want, nullptr) << "no recorded row; observed:\n  "
                             << format_row(row);
    EXPECT_EQ(row, *want) << "observed:\n  " << format_row(row)
                          << "\nrecorded:\n  " << format_row(*want);
  }

  const Circuit circuit_ = exchange_circuit();
  StateVector ref_{kQubits};
  std::uint32_t clean_crc_ = 0;
  Fingerprint row_fp_;
};

TEST_P(ExchangeSweep, DropEveryMessage) { sweep("drop"); }

TEST_P(ExchangeSweep, CorruptEveryMessage) { sweep("corrupt"); }

// Two faults on consecutive messages land in one chunk's two directions
// (serial blocking and overlapped) or in one round (non-blocking). Which one
// surfaces first decides whether the retry is charged a watchdog deadline,
// so this sweep pins the order in which the serial engine completes the
// pair's receives.
using CompletionOrder = ExchangeSweep;

TEST_P(CompletionOrder, CorruptThenDropNextMessage) { sweep("corrupt+drop"); }

std::vector<Config> configs(std::initializer_list<bool> engines) {
  std::vector<Config> out;
  for (bool threaded : engines) {
    for (CommPolicy p : {CommPolicy::kBlocking, CommPolicy::kNonBlocking,
                         CommPolicy::kOverlapped}) {
      for (bool half : {false, true}) {
        out.push_back({threaded, p, half});
      }
    }
  }
  return out;
}

std::string param_name(const ::testing::TestParamInfo<Config>& info) {
  std::string n = config_name(info.param);
  for (char& ch : n) {
    if (ch == '/') {
      ch = '_';
    }
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(Engines, ExchangeSweep,
                         ::testing::ValuesIn(configs({false, true})),
                         param_name);

// The threaded engine completes only its own rank's receives, so the order
// question is the serial engine's alone.
INSTANTIATE_TEST_SUITE_P(Serial, CompletionOrder,
                         ::testing::ValuesIn(configs({false})), param_name);

}  // namespace
}  // namespace qsv
