#include "cluster/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "cluster/faults.hpp"
#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace qsv {
namespace {

std::chrono::duration<double> deadline_of(double seconds) {
  return std::chrono::duration<double>(seconds);
}

}  // namespace

VirtualCluster::VirtualCluster(int num_ranks, std::size_t max_message_bytes,
                               double recv_deadline_s)
    : num_ranks_(num_ranks),
      max_message_bytes_(max_message_bytes),
      recv_deadline_s_(recv_deadline_s) {
  QSV_REQUIRE(num_ranks >= 1, "need at least one rank");
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(num_ranks)),
              "QuEST-style decomposition requires a power-of-two rank count");
  QSV_REQUIRE(max_message_bytes >= kBytesPerAmp,
              "message cap below one amplitude");
  QSV_REQUIRE(recv_deadline_s > 0, "watchdog deadline must be positive");
}

void VirtualCluster::check_rank(rank_t r) const {
  QSV_REQUIRE(r >= 0 && r < num_ranks_,
              "rank out of range: " + std::to_string(r) + " (cluster has " +
                  std::to_string(num_ranks_) + " ranks)");
}

void VirtualCluster::check_alive(rank_t from, rank_t to) const {
  if (injector_ == nullptr) {
    return;
  }
  for (rank_t r : {from, to}) {
    if (injector_->rank_dead(r)) {
      throw NodeFailure("rank " + std::to_string(r) +
                            " is down (message " + std::to_string(from) +
                            " -> " + std::to_string(to) + ")",
                        r, injector_->current_gate());
    }
  }
}

void VirtualCluster::enable_concurrent(std::size_t capacity_messages) {
  QSV_REQUIRE(capacity_messages >= 1,
              "concurrent mailboxes need capacity for at least one message");
  std::lock_guard<std::mutex> lk(m_);
  QSV_REQUIRE(in_flight_ == 0,
              "enable_concurrent requires a quiescent cluster");
  concurrent_ = true;
  capacity_messages_ = capacity_messages;
}

void VirtualCluster::send(rank_t from, rank_t to,
                          std::span<const std::byte> payload) {
  send(from, to, payload, kAnyTag);
}

void VirtualCluster::send(rank_t from, rank_t to,
                          std::span<const std::byte> payload, int tag) {
  check_rank(from);
  check_rank(to);
  QSV_REQUIRE(from != to, "self-send is not a message (rank " +
                              std::to_string(from) + ")");
  QSV_REQUIRE(payload.size() <= max_message_bytes_,
              "message " + std::to_string(from) + " -> " +
                  std::to_string(to) + " of " +
                  std::to_string(payload.size()) +
                  " bytes exceeds the MPI size cap of " +
                  std::to_string(max_message_bytes_) +
                  " bytes; chunk the payload");
  check_alive(from, to);

  bool deliver = true;
  bool corrupt_in_flight = false;
  if (injector_ != nullptr) {
    // The injector is internally synchronised; consulting it outside the
    // transport lock keeps verdict draws off the mailbox critical path.
    const FaultInjector::MessageOutcome out =
        injector_->on_message(from, to, recv_deadline_s_);
    switch (out.verdict) {
      case FaultInjector::Verdict::kDrop:
        deliver = false;  // never enqueued: the matching recv times out
        break;
      case FaultInjector::Verdict::kCorrupt:
        corrupt_in_flight = true;  // bookkeeping only; detection is the CRC
        break;
      case FaultInjector::Verdict::kDelay:
        if (out.past_deadline) {
          // The straggler lands after the receiver's watchdog gives up:
          // never consumed, so the matching recv must time out.
          deliver = false;
        }
        break;  // in-deadline latency is an accounting matter
      case FaultInjector::Verdict::kDeliver:
        break;
    }
  }

  // The payload copy and checksum are the expensive part of a send; they
  // happen outside the lock so concurrent senders overlap. The checksum is
  // computed over the bytes the sender handed us, *before* any in-flight
  // corruption: that is what makes detection end-to-end.
  Message msg;
  if (deliver) {
    msg = Message{std::vector<std::byte>(payload.begin(), payload.end()),
                  crc32(payload.data(), payload.size()), tag};
    if (corrupt_in_flight && !msg.data.empty()) {
      msg.data[msg.data.size() / 2] ^= std::byte{0x01};  // single bit flip
    }
  }

  std::unique_lock<std::mutex> lk(m_);
  // The wire carries the message whether or not it arrives: dropped and
  // corrupted sends are real traffic (and get re-sent by the retry layer).
  ++stats_.messages;
  stats_.bytes += payload.size();
  stats_.max_message_bytes =
      std::max<std::uint64_t>(stats_.max_message_bytes, payload.size());
  if (!deliver) {
    return;
  }
  const std::pair<rank_t, rank_t> key{from, to};
  // A drained mailbox is erased from the map (recv, purge_*, reset_queues),
  // so a reference into queues_ must never be held across a wait: re-find
  // the node each time the predicate runs and treat a missing entry as
  // free space.
  const auto mailbox_depth = [&] {
    const auto it = queues_.find(key);
    return it == queues_.end() ? std::size_t{0} : it->second.size();
  };
  if (concurrent_ && mailbox_depth() >= capacity_messages_) {
    // Buffered-send backpressure, bounded by the same watchdog deadline as
    // a receive: a receiver that stopped draining must not hang the sender.
    const bool freed =
        cv_send_.wait_for(lk, deadline_of(recv_deadline_s_),
                          [&] { return mailbox_depth() < capacity_messages_; });
    if (!freed) {
      throw CommTimeout("send " + std::to_string(from) + " -> " +
                        std::to_string(to) + " timed out: mailbox full (" +
                        std::to_string(mailbox_depth()) + " of " +
                        std::to_string(capacity_messages_) +
                        " messages) after the " +
                        std::to_string(recv_deadline_s_) +
                        " s watchdog deadline");
    }
  }
  queues_[key].push_back(std::move(msg));
  ++in_flight_;
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  if (concurrent_) {
    cv_recv_.notify_all();
  }
}

void VirtualCluster::recv(rank_t from, rank_t to, std::span<std::byte> out) {
  recv(from, to, out, kAnyTag);
}

void VirtualCluster::recv(rank_t from, rank_t to, std::span<std::byte> out,
                          int tag) {
  check_rank(from);
  check_rank(to);
  check_alive(from, to);
  Message msg;
  {
    std::unique_lock<std::mutex> lk(m_);
    // MPI tag matching: a wildcard request takes the oldest message; a
    // tagged request takes the oldest message carrying that tag, leaving
    // out-of-order arrivals (chunk k+1 before chunk k) queued for their own
    // receives. Iterators are re-found under the lock on every predicate
    // run — a concurrent recv/purge may have reshaped the deque.
    std::deque<Message>::iterator m;
    const auto queued = [&] {
      const auto it = queues_.find({from, to});
      if (it == queues_.end()) {
        return false;
      }
      for (auto mi = it->second.begin(); mi != it->second.end(); ++mi) {
        if (tag == kAnyTag || mi->tag == tag) {
          m = mi;
          return true;
        }
      }
      return false;
    };
    if (concurrent_ && !queued()) {
      // Blocking mailbox receive: the sender thread may simply not have
      // arrived yet. The watchdog deadline turns a genuinely missing
      // message (dropped, or the sender died) into the same CommTimeout
      // the serial transport throws immediately.
      cv_recv_.wait_for(lk, deadline_of(recv_deadline_s_), queued);
    }
    if (!queued()) {
      throw CommTimeout("recv " + std::to_string(from) + " -> " +
                        std::to_string(to) +
                        (tag == kAnyTag ? std::string{}
                                        : " (tag " + std::to_string(tag) +
                                              ")") +
                        " timed out: no matching message queued after the " +
                        std::to_string(recv_deadline_s_) +
                        " s watchdog deadline (queue depth 0, message cap " +
                        std::to_string(max_message_bytes_) + " bytes)");
    }
    const auto it = queues_.find({from, to});
    if (m->data.size() != out.size()) {
      const std::string detail =
          "recv " + std::to_string(from) + " -> " + std::to_string(to) +
          ": buffer of " + std::to_string(out.size()) +
          " bytes does not match the queued message of " +
          std::to_string(m->data.size()) + " bytes (queue depth " +
          std::to_string(it->second.size()) + ", message cap " +
          std::to_string(max_message_bytes_) + " bytes)";
      QSV_REQUIRE(false, detail);
    }
    msg = std::move(*m);
    it->second.erase(m);
    --in_flight_;
    if (it->second.empty()) {
      queues_.erase(it);
    }
    if (concurrent_) {
      cv_send_.notify_all();
    }
  }
  // End-to-end verification: recompute the checksum over what actually
  // arrived and compare against what the sender computed. No injector state
  // is consulted here. Copy + CRC run outside the lock.
  std::copy(msg.data.begin(), msg.data.end(), out.begin());
  const std::uint32_t got_crc = crc32(out.data(), out.size());
  std::lock_guard<std::mutex> lk(m_);
  if (got_crc != msg.crc) {
    ++stats_.checksum_failures;
    throw CommCorrupt("recv " + std::to_string(from) + " -> " +
                      std::to_string(to) + ": payload CRC-32 mismatch (sent " +
                      std::to_string(msg.crc) + ", received " +
                      std::to_string(got_crc) + ")");
  }
  ++stats_.delivered;
}

std::size_t VirtualCluster::pending(rank_t from, rank_t to) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = queues_.find({from, to});
  return it == queues_.end() ? 0 : it->second.size();
}

void VirtualCluster::purge_pair(rank_t a, rank_t b) {
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& key : {std::pair<rank_t, rank_t>{a, b},
                          std::pair<rank_t, rank_t>{b, a}}) {
    const auto it = queues_.find(key);
    if (it != queues_.end()) {
      in_flight_ -= it->second.size();
      queues_.erase(it);
    }
  }
  if (concurrent_) {
    cv_send_.notify_all();
  }
}

void VirtualCluster::purge_tag(rank_t a, rank_t b, int tag) {
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& key : {std::pair<rank_t, rank_t>{a, b},
                          std::pair<rank_t, rank_t>{b, a}}) {
    const auto it = queues_.find(key);
    if (it == queues_.end()) {
      continue;
    }
    auto& q = it->second;
    for (auto m = q.begin(); m != q.end();) {
      if (m->tag == tag) {
        m = q.erase(m);
        --in_flight_;
      } else {
        ++m;
      }
    }
    if (q.empty()) {
      queues_.erase(it);
    }
  }
  if (concurrent_) {
    cv_send_.notify_all();
  }
}

void VirtualCluster::purge_rank(rank_t rank) {
  check_rank(rank);
  std::lock_guard<std::mutex> lk(m_);
  for (auto it = queues_.begin(); it != queues_.end();) {
    if (it->first.first == rank || it->first.second == rank) {
      in_flight_ -= it->second.size();
      it = queues_.erase(it);
    } else {
      ++it;
    }
  }
  if (concurrent_) {
    cv_send_.notify_all();
  }
}

void VirtualCluster::shrink_to(int new_num_ranks) {
  QSV_REQUIRE(new_num_ranks >= 1, "need at least one rank");
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(new_num_ranks)),
              "QuEST-style decomposition requires a power-of-two rank count");
  QSV_REQUIRE(new_num_ranks < num_ranks_,
              "shrink_to must reduce the rank count (have " +
                  std::to_string(num_ranks_) + ", asked for " +
                  std::to_string(new_num_ranks) + ")");
  std::lock_guard<std::mutex> lk(m_);
  QSV_REQUIRE(in_flight_ == 0,
              "shrink_to requires a quiescent cluster: " +
                  std::to_string(in_flight_) + " messages still in flight");
  num_ranks_ = new_num_ranks;
}

void VirtualCluster::grow_to(int new_num_ranks) {
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(new_num_ranks)),
              "QuEST-style decomposition requires a power-of-two rank count");
  QSV_REQUIRE(new_num_ranks > num_ranks_,
              "grow_to must increase the rank count (have " +
                  std::to_string(num_ranks_) + ", asked for " +
                  std::to_string(new_num_ranks) + ")");
  std::lock_guard<std::mutex> lk(m_);
  QSV_REQUIRE(in_flight_ == 0,
              "grow_to requires a quiescent cluster: " +
                  std::to_string(in_flight_) + " messages still in flight");
  num_ranks_ = new_num_ranks;
}

void VirtualCluster::reset_queues() {
  std::lock_guard<std::mutex> lk(m_);
  queues_.clear();
  in_flight_ = 0;
  if (concurrent_) {
    cv_send_.notify_all();
  }
}

bool VirtualCluster::quiescent() const {
  std::lock_guard<std::mutex> lk(m_);
  return in_flight_ == 0;
}

int message_count(std::uint64_t total_bytes, std::size_t max_message_bytes) {
  QSV_REQUIRE(max_message_bytes > 0, "zero message cap");
  if (total_bytes == 0) {
    return 0;
  }
  return static_cast<int>((total_bytes + max_message_bytes - 1) /
                          max_message_bytes);
}

}  // namespace qsv
