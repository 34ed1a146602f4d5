// In-process virtual cluster: the message-passing substrate standing in for
// MPI (see DESIGN.md substitution table).
//
// Semantics reproduced from the paper's description of QuEST on ARCHER2:
//  * one process (rank) per node, power-of-two rank counts;
//  * individual messages capped (2 GB on ARCHER2's MPI), so a full-slice
//    exchange is split into many messages — 32 per distributed gate at
//    64 GB per node;
//  * blocking exchanges are a sequence of Sendrecv calls; the non-blocking
//    rewrite posts all Isend/Irecv up front and waits once.
//
// The transport here is *functional*: messages are byte buffers delivered
// through per-pair FIFO queues. Timing semantics (serialisation vs
// pipelining, congestion) belong to the cost model, which consumes the
// execution events the engine emits; the cluster records ground-truth
// traffic counters that the trace backend must reproduce exactly.
//
// Two execution modes share this transport:
//  * serial (default): the single-threaded engine orchestrates every send
//    and recv in program order; a recv that finds no message throws
//    CommTimeout immediately (the message can never arrive later).
//  * concurrent (enable_concurrent): ranks run on their own threads
//    (cluster/rank_team.hpp) and the per-pair queues become bounded MPSC
//    mailboxes — recv blocks on a condition variable until a message lands
//    or the watchdog deadline expires, and send blocks while the
//    destination mailbox is at capacity (MPI buffered-send backpressure).
//    The same watchdog deadline bounds both waits, so a lost peer always
//    surfaces as the familiar CommTimeout instead of a hang.
//
// Integrity is end-to-end, not oracular: every payload carries a CRC-32
// computed at send time, and recv recomputes and compares before handing
// the bytes over. A mismatch surfaces as CommCorrupt — the same typed error
// a real MPI job raises from a failed application-level checksum — and the
// fault injector is pure bookkeeping: no delivery decision ever reads an
// injected "this one is bad" flag. A receive that finds no message models
// an MPI watchdog timeout firing after the configured deadline.
//
// An optional FaultInjector (cluster/faults.hpp) makes the transport lossy
// on a deterministic schedule: dropped messages surface as CommTimeout on
// the matching recv, corrupted ones get a payload bit flipped in flight
// (caught by the receiver's checksum), and messages touching a dead rank
// throw NodeFailure. Without an injector the transport is perfect and
// behaves exactly as before.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace qsv {

class FaultInjector;

/// Communication flavour of a pairwise exchange (paper §3.2). The three
/// values are the paper's optimization arc: its measured blocking→
/// non-blocking win, then its stated future work — overlapping the combine
/// with the chunk stream still in flight.
enum class CommPolicy {
  kBlocking,     // QuEST default: sequence of blocking Sendrecv
  kNonBlocking,  // the paper's rewrite: Isend/Irecv + WaitAll
  kOverlapped,   // Isend/Irecv + per-chunk Waitany: the combine kernel runs
                 // on chunk k while chunk k+1 is in flight
};

[[nodiscard]] inline const char* comm_policy_name(CommPolicy p) {
  switch (p) {
    case CommPolicy::kBlocking: return "blocking";
    case CommPolicy::kNonBlocking: return "non-blocking";
    case CommPolicy::kOverlapped: return "overlapped";
  }
  return "?";
}

/// Ground-truth traffic counters. Messages consumed by an injected drop are
/// still counted (the wire carried them); retried chunks count again, which
/// is exactly the extra traffic the cost model charges.
struct CommStats {
  std::uint64_t messages = 0;        // individual messages sent
  std::uint64_t bytes = 0;           // payload bytes sent
  std::uint64_t max_message_bytes = 0;  // largest single message observed
  /// Peak queued messages. Deterministic in serial mode; in concurrent mode
  /// it depends on thread scheduling (a fast sender deepens the mailbox a
  /// slow receiver is draining), so determinism checks must not key off it.
  std::uint64_t max_in_flight = 0;
  // Receiver-side delivery counters (the trace backend reproduces the
  // send-side traffic above; delivery is a functional-transport notion).
  std::uint64_t delivered = 0;           // receives that passed their CRC
  std::uint64_t checksum_failures = 0;   // receives whose CRC mismatched

  bool operator==(const CommStats&) const = default;
};

/// The virtual cluster. All methods validate rank ids and message sizes.
class VirtualCluster {
 public:
  /// `num_ranks` must be a power of two (QuEST requires 2^k processes).
  /// `max_message_bytes` models the MPI message-size cap; `recv_deadline_s`
  /// is the watchdog deadline a receive waits before declaring a timeout
  /// (reported in the CommTimeout and charged by the retry layer as wait).
  VirtualCluster(int num_ranks, std::size_t max_message_bytes,
                 double recv_deadline_s = 0.5);

  [[nodiscard]] double recv_deadline_s() const { return recv_deadline_s_; }

  [[nodiscard]] int num_ranks() const { return num_ranks_; }
  [[nodiscard]] std::size_t max_message_bytes() const {
    return max_message_bytes_;
  }

  /// Attaches a fault injector (may be null to restore perfect transport).
  /// The injector must outlive the cluster.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  /// Posts one message from `from` to `to`. The payload is copied into the
  /// queue (MPI buffered-send semantics) together with its sender-side
  /// CRC-32. Throws if the payload exceeds the message cap — callers must
  /// chunk. With an injector attached, the message may be dropped or have a
  /// payload bit flipped per the fault plan, and messages touching a dead
  /// rank throw NodeFailure.
  void send(rank_t from, rank_t to, std::span<const std::byte> payload);

  /// MPI-style wildcard tag: recv(tag = kAnyTag) matches the oldest message
  /// regardless of its tag, and send(tag = kAnyTag) posts an untagged
  /// message. All pre-overlap traffic is untagged, so its behaviour is
  /// unchanged.
  static constexpr int kAnyTag = -1;

  /// Tagged send: like send(), but the message carries `tag` (>= 0) for the
  /// receiver to match on. The overlapped exchange pipeline tags each chunk
  /// with its chunk index so completion is chunk-granular — a retry can
  /// purge and re-request one chunk without touching healthy in-flight ones.
  void send(rank_t from, rank_t to, std::span<const std::byte> payload,
            int tag);

  /// Pops the oldest message from `from` to `to` into `out`, which must be
  /// exactly the message's size. Throws CommTimeout if no message is queued
  /// when the watchdog deadline expires (a dropped message, or — fault-free
  /// — an engine scheduling bug) and CommCorrupt when the recomputed CRC-32
  /// of the received bytes disagrees with the sender's. Detection is purely
  /// checksum-based: no injector state is consulted.
  void recv(rank_t from, rank_t to, std::span<std::byte> out);

  /// Tagged receive (MPI tag matching): pops the oldest queued message from
  /// `from` to `to` whose tag equals `tag`, skipping non-matching ones —
  /// chunk k+1 landing first never satisfies the wait for chunk k. Same
  /// timeout/CRC semantics as the untagged form.
  void recv(rank_t from, rank_t to, std::span<std::byte> out, int tag);

  /// Number of queued messages from `from` to `to`.
  [[nodiscard]] std::size_t pending(rank_t from, rank_t to) const;

  /// Discards queued messages with tag `tag` between `a` and `b` (both
  /// directions): the overlapped pipeline's chunk-granular retry clears just
  /// the failed chunk before re-requesting it, leaving every other chunk of
  /// the exchange in flight — purge_pair here would destroy healthy chunks
  /// and force a full re-send.
  void purge_tag(rank_t a, rank_t b, int tag);

  /// Discards queued messages between `a` and `b` (both directions): the
  /// retry path clears half-delivered exchanges before re-sending. Clearing
  /// *both* directions matters for non-blocking exchanges: an isend posted
  /// by the failing side before it died must not survive for a substituted
  /// node to consume as a stale pre-failure payload.
  void purge_pair(rank_t a, rank_t b);

  /// Discards every queued message touching `rank` (either direction, any
  /// peer): the mailbox re-bind when a spare node takes over a rank id. The
  /// replacement starts with empty mailboxes.
  void purge_rank(rank_t rank);

  /// Shrink-to-survive membership change: the cluster drops to
  /// `new_num_ranks` (a smaller power of two). Requires quiescence — the
  /// re-shard traffic must have fully drained first. Traffic counters are
  /// preserved: the movement already paid for stays on the books.
  void shrink_to(int new_num_ranks);

  /// Elastic grow-back membership change: the cluster widens to
  /// `new_num_ranks` (a larger power of two) when replacement nodes arrive
  /// mid-run. Requires quiescence, like shrink_to; traffic counters are
  /// preserved. The revived ranks start with empty mailboxes.
  void grow_to(int new_num_ranks);

  /// Discards every queued message (restart-from-checkpoint recovery).
  void reset_queues();

  /// True when every queue is empty — asserted by the engine after each
  /// gate so no exchange leaks into the next operation.
  [[nodiscard]] bool quiescent() const;

  /// Switches the per-pair queues into bounded concurrent mailboxes:
  /// recv blocks (condition variable) until a message lands or the watchdog
  /// deadline expires; send blocks while the destination mailbox holds
  /// `capacity_messages` undelivered messages. Call before any traffic.
  void enable_concurrent(std::size_t capacity_messages);
  [[nodiscard]] bool concurrent() const { return concurrent_; }

  [[nodiscard]] const CommStats& stats() const {
    // Caller-visible reads happen between parallel regions (quiescent), so
    // no lock is taken; concurrent readers would need one.
    return stats_;
  }
  void reset_stats() { stats_ = CommStats{}; }

 private:
  struct Message {
    std::vector<std::byte> data;
    /// CRC-32 of the payload as the sender handed it over — computed before
    /// any in-flight corruption, so the receiver's recompute catches it.
    std::uint32_t crc = 0;
    /// Sender-assigned tag (kAnyTag for untagged traffic); the overlapped
    /// pipeline's chunk index.
    int tag = kAnyTag;
  };

  void check_rank(rank_t r) const;
  void check_alive(rank_t from, rank_t to) const;

  int num_ranks_;
  std::size_t max_message_bytes_;
  double recv_deadline_s_;
  // Keyed by (from, to). A map keeps memory proportional to active pairs
  // rather than num_ranks^2.
  std::map<std::pair<rank_t, rank_t>, std::deque<Message>> queues_;
  std::uint64_t in_flight_ = 0;
  CommStats stats_;
  FaultInjector* injector_ = nullptr;

  // Concurrent-mode state. The single mutex guards queues_, in_flight_
  // and stats_; payload copies and CRC work happen outside it so senders
  // and receivers overlap on the expensive part.
  bool concurrent_ = false;
  std::size_t capacity_messages_ = std::numeric_limits<std::size_t>::max();
  mutable std::mutex m_;
  std::condition_variable cv_recv_;   // a message landed
  std::condition_variable cv_send_;   // mailbox space freed
};

/// Splits a payload of `total_bytes` into messages of at most
/// `max_message_bytes`; returns the number of messages (the paper's "32
/// messages are exchanged per distributed gate").
[[nodiscard]] int message_count(std::uint64_t total_bytes,
                                std::size_t max_message_bytes);

}  // namespace qsv
