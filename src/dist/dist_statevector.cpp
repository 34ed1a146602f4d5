#include "dist/dist_statevector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "sv/kernels.hpp"

namespace qsv {

template <class S>
DistStateVector<S>::DistStateVector(int num_qubits, int num_ranks,
                                    DistOptions opts)
    : num_qubits_(num_qubits),
      local_qubits_(num_qubits - bits::log2_exact(
                                     static_cast<std::uint64_t>(num_ranks))),
      opts_(opts),
      cluster_(num_ranks, opts.max_message_bytes, opts.recv_deadline_s) {
  QSV_REQUIRE(num_qubits >= 1 && num_qubits <= 30,
              "functional distributed engine supports 1..30 qubits");
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(num_ranks)),
              "rank count must be a power of two");
  QSV_REQUIRE(local_qubits_ >= 1,
              "each rank must hold at least 2 amplitudes (QuEST's rule)");

  const amp_index n_local = amp_index{1} << local_qubits_;
  const std::size_t chunk_bytes = std::min<std::size_t>(
      opts_.max_message_bytes, n_local * kBytesPerAmp);

  if (opts_.threading.enabled()) {
    QSV_REQUIRE(
        opts_.threading.threads == num_ranks,
        "threaded engine needs exactly one thread per rank (asked for " +
            std::to_string(opts_.threading.threads) + " threads, " +
            std::to_string(num_ranks) +
            " ranks): the symmetric exchange protocol needs every rank "
            "live at once");
    const HostTopology topo = discover_host_topology();
    numa_domains_ = static_cast<int>(topo.domains.size());
    host_cpus_ = topo.total_cpus;
    PlacementPlan plan =
        plan_placement(topo, num_ranks, opts_.threading.placement);
    if (numa_domains_ > 1) {
      numa_ratio_ = measure_numa_bandwidth_ratio(topo);
    }
    team_ = std::make_unique<RankTeam>(num_ranks, std::move(plan));

    // Mailbox capacity: one full exchange direction at the widest slice any
    // shrink can reach (half the state), so the non-blocking policy (all
    // sends posted before any recv) can never stall on backpressure.
    const std::uint64_t widest_bytes =
        (std::uint64_t{1} << (num_qubits_ - 1)) * kBytesPerAmp;
    const std::size_t capacity = static_cast<std::size_t>(
        (widest_bytes + opts_.max_message_bytes - 1) /
        opts_.max_message_bytes);
    cluster_.enable_concurrent(capacity);

    // First touch: each rank thread allocates and zero-fills its own slice,
    // recv buffer and packing scratch, so the pages land in the NUMA domain
    // the thread was placed in.
    slices_.resize(static_cast<std::size_t>(num_ranks));
    recv_bufs_.resize(static_cast<std::size_t>(num_ranks));
    scratch_.resize(static_cast<std::size_t>(num_ranks));
    team_->run(num_ranks, [&](int r) {
      slices_[static_cast<std::size_t>(r)] = S(n_local);
      recv_bufs_[static_cast<std::size_t>(r)] = S(n_local);
      scratch_[static_cast<std::size_t>(r)].msg.resize(chunk_bytes);
    });
  } else {
    slices_.reserve(num_ranks);
    recv_bufs_.reserve(num_ranks);
    for (int r = 0; r < num_ranks; ++r) {
      slices_.emplace_back(n_local);
      recv_bufs_.emplace_back(n_local);
    }
    scratch_.resize(2);
    scratch_[0].msg.resize(chunk_bytes);
  }
  init_zero_state();
}

template <class S>
typename DistStateVector<S>::ThreadSummary
DistStateVector<S>::thread_summary() const {
  ThreadSummary s;
  if (team_ == nullptr) {
    return s;
  }
  s.enabled = true;
  s.threads = team_->workers();
  s.placement = team_->plan().policy;
  s.pinned = team_->pinned();
  s.domains = numa_domains_;
  s.cpus = host_cpus_;
  s.numa_ratio = numa_ratio_;
  return s;
}

template <class S>
void DistStateVector<S>::init_zero_state() {
  init_basis_state(0);
}

template <class S>
void DistStateVector<S>::init_basis_state(amp_index index) {
  QSV_REQUIRE(index < (amp_index{1} << num_qubits_), "basis state range");
  for (auto& s : slices_) {
    s.fill_zero();
  }
  const rank_t r = static_cast<rank_t>(index >> local_qubits_);
  slices_[r].set(index & (local_amps() - 1), cplx{1, 0});
}

template <class S>
void DistStateVector<S>::init_from(const BasicStateVector<S>& sv) {
  QSV_REQUIRE(sv.num_qubits() == num_qubits_, "register size mismatch");
  const amp_index n = local_amps();
  for (rank_t r = 0; r < num_ranks(); ++r) {
    const amp_index first = static_cast<amp_index>(r) * n;
    std::copy_n(sv.storage().re() + first, n, slices_[r].re());
    std::copy_n(sv.storage().im() + first, n, slices_[r].im());
  }
}

template <class S>
cplx DistStateVector<S>::amplitude(amp_index global) const {
  QSV_REQUIRE(global < (amp_index{1} << num_qubits_), "amplitude range");
  const rank_t r = static_cast<rank_t>(global >> local_qubits_);
  return slices_[r].get(global & (local_amps() - 1));
}

template <class S>
void DistStateVector<S>::set_amplitude(amp_index global, cplx v) {
  QSV_REQUIRE(global < (amp_index{1} << num_qubits_), "amplitude range");
  const rank_t r = static_cast<rank_t>(global >> local_qubits_);
  slices_[r].set(global & (local_amps() - 1), v);
}

template <class S>
void DistStateVector<S>::emit(const ExecEvent& e) {
  if (listener_ != nullptr) {
    listener_->on_event(e);
  }
}

template <class S>
void DistStateVector<S>::tick_gate() {
  const std::uint64_t index = gates_applied_++;
  if (injector_ == nullptr) {
    return;
  }
  if (const std::optional<rank_t> dead = injector_->on_gate(index)) {
    // Fires before any work of the gate: every surviving slice holds a
    // consistent pre-gate state, which is what makes the cheap recovery
    // tiers (substitution, shrink) feasible for this failure.
    throw NodeFailure("rank " + std::to_string(*dead) +
                          " failed at gate " + std::to_string(index),
                      *dead, index, /*at_gate_boundary=*/true);
  }
  // Silent data corruption: flip the planned bit in the planned rank's
  // resident slice. Nothing is thrown — by construction the engine cannot
  // see this happen; only an invariant guard can.
  for (const FaultInjector::BitFlipSpec& flip :
       injector_->bitflips_at_gate(index)) {
    QSV_REQUIRE(flip.rank >= 0 && flip.rank < num_ranks(),
                "bitflip spec names rank " + std::to_string(flip.rank) +
                    " but the cluster has " + std::to_string(num_ranks()) +
                    " ranks");
    const amp_index amp = static_cast<amp_index>(
        flip.amp_draw % static_cast<std::uint64_t>(local_amps()));
    const cplx v = slices_[flip.rank].get(amp);
    double parts[2] = {v.real(), v.imag()};
    std::uint64_t raw = 0;
    std::memcpy(&raw, &parts[flip.bit / 64], sizeof raw);
    raw ^= std::uint64_t{1} << (flip.bit % 64);
    std::memcpy(&parts[flip.bit / 64], &raw, sizeof raw);
    slices_[flip.rank].set(amp, cplx{parts[0], parts[1]});
  }
}

template <class S>
template <class Fn>
void DistStateVector<S>::retry(rank_t r, rank_t peer, bool rendezvous,
                               int tag, int messages, std::uint64_t bytes,
                               Fn&& attempt) {
  if (rendezvous && injector_ == nullptr) {
    // Fault-free threaded transport skips the rendezvous entirely: the hot
    // path has no extra sync.
    attempt(0);
    return;
  }
  // Fault-free transport gets a single attempt, so genuine engine bugs are
  // never masked by the retry loop.
  const int attempts = injector_ != nullptr ? opts_.max_retries + 1 : 1;
  const int pair_id = static_cast<int>(std::min(r, peer));
  // Bounds the rendezvous wait: the peer's legitimate latency is at most
  // one watchdog deadline per message of the attempt, plus slack. A peer
  // that died of a non-communication error must not hang its partner.
  const double rendezvous_s = opts_.recv_deadline_s * (2.0 * messages + 4.0);
  auto node_failure = [&](const std::string& why) {
    return NodeFailure("exchange between ranks " + std::to_string(r) +
                           " and " + std::to_string(peer) + " " + why,
                       peer, gates_applied_ == 0 ? 0 : gates_applied_ - 1);
  };
  for (int a = 0; a < attempts; ++a) {
    bool fail = false;
    bool timed = false;
    bool fatal = false;
    try {
      attempt(a);
    } catch (const CommTimeout&) {
      // The watchdog deadline elapsed before the receive gave up: that
      // wait is real wall time on top of the retry backoff. A checksum
      // mismatch is detected on arrival and costs no extra wait.
      fail = true;
      timed = true;
    } catch (const CommFault&) {
      fail = true;
    } catch (const NodeFailure&) {
      if (!rendezvous) {
        throw;
      }
      fatal = true;
    }
    if (rendezvous) {
      const RankTeam::PairOutcome out =
          team_->pair_arrive(pair_id, fail, timed, fatal, rendezvous_s);
      if (out.any_fatal) {
        // One side saw a dead rank: both throw, so recovery starts from a
        // symmetric position (mid-exchange, not at a gate boundary).
        throw node_failure("observed a node failure");
      }
      fail = out.any_fail;
      timed = out.any_timed;
    }
    if (!fail) {
      return;
    }
    // Clear the half-delivered messages before anything is re-sent, and
    // record the retry once per pair. On the threaded engine the lower rank
    // does both, then the pair rendezvous again so no re-send can race the
    // purge.
    if (!rendezvous || r < peer) {
      if (tag == VirtualCluster::kAnyTag) {
        cluster_.purge_pair(r, peer);
      } else {
        // Only this chunk's tag: the exchange's other chunks stay queued as
        // healthy in-flight traffic, which keeps the retry chunk-granular.
        cluster_.purge_tag(r, peer, tag);
      }
      if (a + 1 < attempts) {
        injector_->record_retry(
            bytes, messages,
            opts_.retry_backoff_s * static_cast<double>(1 << a) +
                (timed ? opts_.recv_deadline_s : 0.0));
      }
    }
    if (rendezvous) {
      team_->pair_arrive(pair_id, false, false, false, rendezvous_s);
    }
    if (a + 1 >= attempts) {
      throw node_failure("abandoned after " +
                         std::to_string(opts_.max_retries) + " retries");
    }
  }
}

template <class S>
void DistStateVector<S>::exchange(rank_t r, rank_t peer, const Payload& p) {
  // The serial engine drives both pair members, side[0] = r and side[1] =
  // peer; a rank thread drives side[0] only. A member sends to and
  // receives from side[1 - s].
  const bool both = team_ == nullptr;
  const rank_t side[2] = {r, peer};
  const int sides = both ? 2 : 1;
  auto stage = [&](int s) -> Scratch& {
    return scratch_[static_cast<std::size_t>(both ? s : r)];
  };
  std::byte* const msg = stage(0).msg.data();

  // Chunk geometry in payload units: amplitudes for the full slice, bytes
  // for the packed half payload (so a chunk boundary may split an
  // amplitude, which the overlapped frontier re-aligns).
  const amp_index unit_bytes = p.half ? 1 : kBytesPerAmp;
  const amp_index total = p.half ? kern::half_payload_bytes(local_amps())
                                 : local_amps();
  const amp_index chunk = std::min<amp_index>(
      total, opts_.max_message_bytes / unit_bytes);
  const amp_index chunks = (total + chunk - 1) / chunk;
  const bool overlapped = opts_.policy == CommPolicy::kOverlapped;
  // Overlapped chunks are tagged with their index, so completion, purge
  // and re-send are chunk-granular; the other policies send untagged FIFO.
  auto tag = [&](amp_index c) {
    return overlapped ? static_cast<int>(c) : VirtualCluster::kAnyTag;
  };
  auto extent = [&](amp_index c) { return std::min(chunk, total - c * chunk); };

  // Half payload: each member ships the amplitudes whose local bit
  // disagrees with its own bit of the distributed target (kernels.hpp).
  const int high_bit =
      p.half ? bits::log2_exact(static_cast<std::uint64_t>(r ^ peer)) : 0;
  auto half_value = [&](int s) {
    return 1 - bits::bit(static_cast<amp_index>(side[s]), high_bit);
  };
  if (p.half) {
    for (int s = 0; s < sides; ++s) {
      stage(s).half_out.resize(total);
      stage(s).half_in.resize(total);
      kern::gather_half(slices_[side[s]], p.local_bit, half_value(s),
                        stage(s).half_out.data());
    }
  }

  auto post = [&](amp_index c) {
    const amp_index first = c * chunk;
    for (int s = 0; s < sides; ++s) {
      if (p.half) {
        cluster_.send(side[s], side[1 - s],
                      {stage(s).half_out.data() + first, extent(c)}, tag(c));
      } else {
        const std::size_t bytes = slices_[side[s]].pack(first, extent(c), msg);
        cluster_.send(side[s], side[1 - s], {msg, bytes}, tag(c));
      }
    }
  };
  // Receives at the peer first, then at r: under the serial engine's
  // global message ordinals, which fault surfaces first decides whether
  // the retry is charged a watchdog deadline.
  auto complete = [&](amp_index c) {
    const amp_index first = c * chunk;
    for (int s = sides - 1; s >= 0; --s) {
      if (p.half) {
        cluster_.recv(side[1 - s], side[s],
                      {stage(s).half_in.data() + first, extent(c)}, tag(c));
      } else {
        cluster_.recv(side[1 - s], side[s], {msg, extent(c) * kBytesPerAmp},
                      tag(c));
        recv_bufs_[side[s]].unpack(first, extent(c), msg);
      }
    }
  };
  // Applies the arrived region [first, first + count) (payload units) to
  // every driven member, r first.
  auto combine = [&](amp_index first, amp_index count) {
    for (int s = 0; s < sides; ++s) {
      if (p.half) {
        kern::scatter_half_range(slices_[side[s]], p.local_bit,
                                 half_value(s), stage(s).half_in.data(),
                                 first / kBytesPerAmp, count / kBytesPerAmp);
      } else {
        p.combine(side[s], first, count);
      }
    }
  };

  // Retry charges cover both directions, so a threaded pair records
  // exactly what the serial engine records.
  const bool rendezvous = !both;
  switch (opts_.policy) {
    case CommPolicy::kBlocking:
      // QuEST's chain of blocking Sendrecv calls: each chunk completes
      // before the next is posted, and a fault retries that chunk's round.
      for (amp_index c = 0; c < chunks; ++c) {
        retry(r, peer, rendezvous, VirtualCluster::kAnyTag, 2,
              2 * extent(c) * unit_bytes, [&](int) {
                post(c);
                complete(c);
              });
      }
      combine(0, total);
      break;
    case CommPolicy::kNonBlocking:
      // The paper's rewrite: every Isend/Irecv posted up front, one WaitAll.
      // A fault fails the WaitAll, so the whole round is re-posted.
      retry(r, peer, rendezvous, VirtualCluster::kAnyTag,
            2 * static_cast<int>(chunks), 2 * total * unit_bytes, [&](int) {
              for (amp_index c = 0; c < chunks; ++c) {
                post(c);
              }
              for (amp_index c = 0; c < chunks; ++c) {
                complete(c);
              }
            });
      combine(0, total);
      break;
    case CommPolicy::kOverlapped: {
      // Post every chunk up front, then wait on chunks in index order (a
      // per-chunk Waitany) and let the combine chase the arrival frontier:
      // chunk k is applied while chunks k+1.. are still queued. A fault
      // re-sends only the failed chunk. Its combine region is untouched
      // until it has fully arrived (and the gathered half payload is
      // immutable), so the re-send ships identical bytes.
      for (amp_index c = 0; c < chunks; ++c) {
        post(c);
      }
      // The half payload's frontier runs in bytes: kBytesPerAmp alignment
      // holds the scatter back to whole packed amplitudes.
      const amp_index tile =
          amp_index{1} << std::min(opts_.sweep.tile_qubits, local_qubits_);
      amp_index next = 0;
      kern::apply_over_frontier(
          total, p.half ? kBytesPerAmp : p.align,
          p.half ? tile * kBytesPerAmp : tile, [&]() -> amp_index {
            const amp_index c = next++;
            retry(r, peer, rendezvous, tag(c), 2,
                  2 * extent(c) * unit_bytes, [&](int attempt) {
                    if (attempt > 0) {
                      post(c);
                    }
                    complete(c);
                  });
            return c * chunk + extent(c);
          },
          combine);
      break;
    }
  }
}

template <class S>
double DistStateVector<S>::exchange_numa_ratio(const OpPlan& plan) const {
  if (team_ == nullptr || numa_ratio_ <= 1.0) {
    return 1.0;
  }
  const std::vector<int>& dom = team_->plan().domain_of_rank;
  for (rank_t r = 0; r < num_ranks(); ++r) {
    const rank_t peer = static_cast<rank_t>(
        static_cast<std::uint64_t>(r) ^ plan.rank_xor_mask);
    if (peer <= r ||
        !bits::all_set(static_cast<amp_index>(r), plan.high_mask)) {
      continue;
    }
    if (static_cast<std::size_t>(peer) < dom.size() &&
        dom[static_cast<std::size_t>(r)] !=
            dom[static_cast<std::size_t>(peer)]) {
      return numa_ratio_;  // a gate waits on its slowest pair
    }
  }
  return 1.0;
}

template <class S>
void DistStateVector<S>::apply_distributed(const Gate& g, const OpPlan& plan) {
  const amp_index local_ctrl =
      kern::split_controls(g.controls, local_qubits_).local;
  // A member's bit of the distributed target: its matrix row, or which
  // half of a one-high SWAP it keeps.
  auto high_bit_of = [&](rank_t x) {
    return bits::bit(static_cast<amp_index>(x), plan.high_bit);
  };
  Mat2 u{};
  Payload p;
  switch (plan.combine) {
    case OpPlan::Combine::kMatrix1:
      // Computed once: every combine sees identical inputs. Elementwise, so
      // every arrived amplitude is immediately combinable (align 1).
      u = gate_matrix2(g);
      p.combine = [&](rank_t x, amp_index first, amp_index count) {
        kern::combine_matrix1_range(slices_[x], recv_bufs_[x], high_bit_of(x),
                                    u, local_ctrl, first, count);
      };
      break;
    case OpPlan::Combine::kSwapOneHigh: {
      const int a = g.targets[0];
      if (plan.half_exchange) {
        p.half = true;
        p.local_bit = a;
        break;
      }
      // The combine reads the partner amplitude flip_bit(i, a), so regions
      // must be closed under that flip: align 2^(a+1).
      p.align = amp_index{1} << (a + 1);
      p.combine = [&, a](rank_t x, amp_index first, amp_index count) {
        kern::combine_swap_one_high_range(slices_[x], recv_bufs_[x], a,
                                          high_bit_of(x), first, count);
      };
      break;
    }
    case OpPlan::Combine::kSwapTwoHigh:
      p.combine = [&](rank_t x, amp_index first, amp_index count) {
        kern::combine_swap_two_high_range(slices_[x], recv_bufs_[x], first,
                                          count);
      };
      break;
    case OpPlan::Combine::kNone:
      QSV_REQUIRE(false, "distributed plan without a combine kind");
  }

  auto peer_of = [&](rank_t r) {
    return static_cast<rank_t>(static_cast<std::uint64_t>(r) ^
                               plan.rank_xor_mask);
  };
  // Whether r's pair moves amplitudes. high_mask names control bits and
  // rank_xor_mask target bits; they are disjoint, so both members agree.
  auto moves = [&](rank_t r) {
    if (!bits::all_set(static_cast<amp_index>(r), plan.high_mask)) {
      return false;  // high controls unsatisfied: the pair is idle
    }
    if (plan.combine == OpPlan::Combine::kSwapTwoHigh) {
      // Only ranks holding exactly one of the two high bits move.
      const std::uint64_t m = plan.rank_xor_mask;
      const std::uint64_t rb = static_cast<std::uint64_t>(r) & m;
      return rb != 0 && rb != m;
    }
    return true;
  };
  if (team_ != nullptr) {
    team_->run(num_ranks(), [&](int ri) {
      const rank_t r = static_cast<rank_t>(ri);
      if (moves(r)) {
        exchange(r, peer_of(r), p);
      }
    });
  } else {
    for (rank_t r = 0; r < num_ranks(); ++r) {
      if (peer_of(r) > r && moves(r)) {  // each pair once
        exchange(r, peer_of(r), p);
      }
    }
  }
  QSV_REQUIRE(cluster_.quiescent(),
              "messages left in flight after a distributed gate");
}

template <class S>
void DistStateVector<S>::apply(const Gate& g) {
  QSV_REQUIRE(g.max_qubit() < num_qubits_, "gate qubit out of range");

  // Gates without a native distributed execution (two-qubit dense
  // unitaries on rank bits) run as their SWAP-staged expansion.
  const std::vector<Gate> expansion =
      expand_for_decomposition(g, local_qubits_);
  if (!expansion.empty()) {
    for (const Gate& sub : expansion) {
      apply(sub);
    }
    return;
  }

  tick_gate();
  const OpPlan plan = plan_gate(g, num_qubits_, local_qubits_, opts_);

  ExecEvent e;
  e.gate = g.kind;
  e.locality = plan.locality;
  e.local_amps = local_amps();
  e.local_target = plan.local_target;
  e.participating_fraction = plan.participating_fraction;

  if (plan.locality == GateLocality::kDistributed) {
    apply_distributed(g, plan);
    e.kind = ExecEvent::Kind::kExchange;
    e.bytes_per_rank = plan.exchange_bytes;
    e.messages_per_rank = plan.messages;
    e.policy = opts_.policy;
    e.half_exchange = plan.half_exchange;
    e.overlap_chunks =
        opts_.policy == CommPolicy::kOverlapped ? plan.messages : 0;
    e.numa_ratio = exchange_numa_ratio(plan);
    if (injector_ != nullptr) {
      const FaultInjector::GateFaultCharges charges =
          injector_->take_gate_charges();
      e.retry_bytes = charges.retry_bytes;
      e.retry_messages = charges.retry_messages;
      e.fault_delay_s = charges.delay_s;
    }
  } else {
    if (team_ != nullptr) {
      team_->run(num_ranks(), [&](int r) {
        kern::apply_gate_slice(slices_[static_cast<std::size_t>(r)], g,
                               local_qubits_, static_cast<amp_index>(r));
      });
    } else {
      for (rank_t r = 0; r < num_ranks(); ++r) {
        kern::apply_gate_slice(slices_[r], g, local_qubits_,
                               static_cast<amp_index>(r));
      }
    }
    e.kind = ExecEvent::Kind::kLocalGate;
  }
  emit(e);
}

template <class S>
bool DistStateVector<S>::gate_runs_local(const Gate& g) const {
  const std::vector<Gate> expansion =
      expand_for_decomposition(g, local_qubits_);
  if (!expansion.empty()) {
    for (const Gate& sub : expansion) {
      if (!gate_runs_local(sub)) {
        return false;
      }
    }
    return true;
  }
  return plan_gate(g, num_qubits_, local_qubits_, opts_).locality !=
         GateLocality::kDistributed;
}

template <class S>
void DistStateVector<S>::apply_to_rank(const Gate& g, rank_t r) {
  QSV_REQUIRE(r >= 0 && r < num_ranks(), "rank out of range");
  const std::vector<Gate> expansion =
      expand_for_decomposition(g, local_qubits_);
  if (!expansion.empty()) {
    for (const Gate& sub : expansion) {
      apply_to_rank(sub, r);
    }
    return;
  }
  const OpPlan plan = plan_gate(g, num_qubits_, local_qubits_, opts_);
  QSV_REQUIRE(plan.locality != GateLocality::kDistributed,
              "solo replay requires gates with no distributed exchange");
  kern::apply_gate_slice(slices_[r], g, local_qubits_,
                         static_cast<amp_index>(r));
  ExecEvent e;
  e.kind = ExecEvent::Kind::kLocalGate;
  e.gate = g.kind;
  e.locality = plan.locality;
  e.local_amps = local_amps();
  e.local_target = plan.local_target;
  // Exactly one node computes while the rest wait at the resume barrier.
  e.participating_fraction = 1.0 / static_cast<double>(num_ranks());
  emit(e);
}

template <class S>
void DistStateVector<S>::rebind_rank(rank_t r) {
  cluster_.purge_rank(r);
}

template <class S>
ReshardPlan DistStateVector<S>::shrink_to_half(rank_t dead_rank) {
  const ReshardPlan plan = plan_reshard(num_qubits_, local_qubits_, dead_rank,
                                        opts_.max_message_bytes);
  const amp_index n_local = local_amps();
  const amp_index chunk_amps = std::min<amp_index>(
      n_local,
      std::max<amp_index>(1, opts_.max_message_bytes / kBytesPerAmp));

  std::byte* const buf = scratch_[0].msg.data();
  std::vector<S> merged;
  merged.reserve(static_cast<std::size_t>(plan.new_ranks));
  for (int n = 0; n < plan.new_ranks; ++n) {
    const rank_t lo = static_cast<rank_t>(2 * n);
    const rank_t hi = static_cast<rank_t>(2 * n + 1);
    // The dead pair merges on its surviving member, and the rebuilt slice
    // was read from the checkpoint straight onto that host — no network
    // movement either way for this one pair.
    const bool dead_pair = lo == dead_rank || hi == dead_rank;
    S s(n_local * 2);
    for (const rank_t src : {lo, hi}) {
      const amp_index base = src == lo ? 0 : n_local;
      for (amp_index first = 0; first < n_local; first += chunk_amps) {
        const amp_index count = std::min(chunk_amps, n_local - first);
        const std::size_t bytes = slices_[src].pack(first, count, buf);
        if (src == hi && !dead_pair) {
          cluster_.send(hi, lo, {buf, bytes});
          cluster_.recv(hi, lo, {buf, bytes});
        }
        s.unpack(base + first, count, buf);
      }
    }
    merged.push_back(std::move(s));
  }

  slices_ = std::move(merged);
  local_qubits_ += 1;
  cluster_.shrink_to(plan.new_ranks);

  const amp_index n_merged = local_amps();
  recv_bufs_.clear();
  recv_bufs_.reserve(static_cast<std::size_t>(plan.new_ranks));
  for (int r = 0; r < plan.new_ranks; ++r) {
    recv_bufs_.emplace_back(n_merged);
  }
  // Doubled slices double the packing chunk; the extra rank threads beyond
  // new_ranks simply idle in later fork/join regions.
  size_message_scratch();
  return plan;
}

template <class S>
GrowBackPlan DistStateVector<S>::grow_back_double() {
  const GrowBackPlan plan =
      plan_grow_back(num_qubits_, local_qubits_, opts_.max_message_bytes);
  QSV_REQUIRE(team_ == nullptr || plan.new_ranks <= team_->workers(),
              "grow-back beyond the constructed width: the rank team has " +
                  std::to_string(team_ != nullptr ? team_->workers() : 0) +
                  " workers, asked for " + std::to_string(plan.new_ranks) +
                  " ranks");
  const amp_index n_local = local_amps();
  const amp_index n_half = n_local / 2;
  const amp_index chunk_amps = std::min<amp_index>(
      n_half,
      std::max<amp_index>(1, opts_.max_message_bytes / kBytesPerAmp));

  // Widen the cluster before any traffic: the revived ranks must be valid
  // send targets. The engine is quiescent at a gate boundary, so this (and
  // the rollback shrink below) cannot race in-flight messages.
  cluster_.grow_to(plan.new_ranks);

  std::byte* const buf = scratch_[0].msg.data();
  std::vector<S> grown;
  grown.resize(static_cast<std::size_t>(plan.new_ranks));
  try {
    if (team_ != nullptr) {
      // First touch: each new rank's worker thread allocates and zero-fills
      // its own slice, so the pages land in the revived rank's NUMA domain.
      team_->run(plan.new_ranks, [&](int r) {
        grown[static_cast<std::size_t>(r)] = S(n_half);
      });
    } else {
      for (int r = 0; r < plan.new_ranks; ++r) {
        grown[static_cast<std::size_t>(r)] = S(n_half);
      }
    }
    for (int n = 0; n < plan.old_ranks; ++n) {
      const rank_t lo = static_cast<rank_t>(2 * n);
      const rank_t hi = static_cast<rank_t>(2 * n + 1);
      // The low half stays resident on the survivor (new rank 2n).
      for (amp_index first = 0; first < n_half; first += chunk_amps) {
        const amp_index count = std::min(chunk_amps, n_half - first);
        slices_[static_cast<std::size_t>(n)].pack(first, count, buf);
        grown[static_cast<std::size_t>(lo)].unpack(first, count, buf);
      }
      // The absorbed partner half ships to the revived rank 2n+1 through the
      // cluster — CRC-checked end-to-end and retried on transient faults
      // like any exchange, so a corrupted handoff payload is caught and
      // re-sent, never absorbed into the revived slice.
      // The orchestrator drives both ends, so no pair rendezvous.
      retry(lo, hi, /*rendezvous=*/false, VirtualCluster::kAnyTag,
            plan.messages_per_move, plan.bytes_per_move, [&](int) {
              for (amp_index first = 0; first < n_half; first += chunk_amps) {
                const amp_index count = std::min(chunk_amps, n_half - first);
                const std::size_t bytes =
                    slices_[static_cast<std::size_t>(n)].pack(n_half + first,
                                                              count, buf);
                cluster_.send(lo, hi, {buf, bytes});
                cluster_.recv(lo, hi, {buf, bytes});
                grown[static_cast<std::size_t>(hi)].unpack(first, count,
                                                           buf);
              }
            });
    }
  } catch (...) {
    // The movement faulted past the retry budget: restore the narrow
    // membership and leave the (untouched) merged slices in place, so the
    // run continues at the old width.
    cluster_.reset_queues();
    cluster_.shrink_to(plan.old_ranks);
    throw;
  }

  slices_ = std::move(grown);
  local_qubits_ -= 1;

  recv_bufs_.clear();
  recv_bufs_.reserve(static_cast<std::size_t>(plan.new_ranks));
  for (int r = 0; r < plan.new_ranks; ++r) {
    recv_bufs_.emplace_back(n_half);
  }
  size_message_scratch();
  return plan;
}

template <class S>
void DistStateVector<S>::size_message_scratch() {
  const std::size_t chunk_bytes = std::min<std::size_t>(
      opts_.max_message_bytes, local_amps() * kBytesPerAmp);
  // Every rank thread's slot, or the serial engine's single buffer.
  const std::size_t slots = team_ != nullptr ? scratch_.size() : 1;
  for (std::size_t i = 0; i < slots; ++i) {
    scratch_[i].msg.resize(chunk_bytes);
  }
}

template <class S>
std::vector<GrowBackPlan> DistStateVector<S>::grow_back_to_full(
    int target_ranks) {
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(target_ranks)),
              "rank count must be a power of two");
  QSV_REQUIRE(target_ranks >= num_ranks(),
              "grow_back_to_full cannot reduce the rank count");
  std::vector<GrowBackPlan> plans;
  while (num_ranks() < target_ranks) {
    plans.push_back(grow_back_double());
  }
  return plans;
}

template <class S>
void DistStateVector<S>::apply_sweep_run(const Circuit& c, std::size_t first,
                                         std::size_t count) {
  // A planned node failure anywhere inside the tiled run fires before the
  // run executes: slices are never left mid-sweep.
  for (std::size_t i = 0; i < count; ++i) {
    tick_gate();
  }
  const Gate* gates = c.gates().data() + first;
  const int t = std::min(opts_.sweep.tile_qubits, local_qubits_);
  if (team_ != nullptr) {
    team_->run(num_ranks(), [&](int r) {
      kern::apply_sweep_run(slices_[static_cast<std::size_t>(r)], gates,
                            count, t, local_qubits_,
                            static_cast<amp_index>(r));
    });
  } else {
    for (rank_t r = 0; r < num_ranks(); ++r) {
      kern::apply_sweep_run(slices_[r], gates, count, t, local_qubits_,
                            static_cast<amp_index>(r));
    }
  }
  const amp_index tiles = local_amps() >> t;
  sweep_stats_.add_run(count, tiles);

  ExecEvent se;
  se.kind = ExecEvent::Kind::kSweep;
  se.gate = gates[0].kind;
  se.local_amps = local_amps();
  se.sweep_gates = static_cast<int>(count);
  se.sweep_tiles = tiles;
  emit(se);

  // The per-gate events are unchanged versus gate-by-gate execution, so a
  // listening cost model charges exactly what a naive run would.
  for (std::size_t i = 0; i < count; ++i) {
    const Gate& g = gates[i];
    const OpPlan plan = plan_gate(g, num_qubits_, local_qubits_, opts_);
    ExecEvent e;
    e.kind = ExecEvent::Kind::kLocalGate;
    e.gate = g.kind;
    e.locality = plan.locality;
    e.local_amps = local_amps();
    e.local_target = plan.local_target;
    e.participating_fraction = plan.participating_fraction;
    emit(e);
  }
}

template <class S>
void DistStateVector<S>::apply(const Circuit& c) {
  QSV_REQUIRE(c.num_qubits() == num_qubits_, "register size mismatch");
  const std::vector<GateRun> runs =
      plan_sweep_runs(c.gates(), local_qubits_, opts_.sweep);
  for (const GateRun& run : runs) {
    apply_run(c, run);
  }
}

template <class S>
void DistStateVector<S>::apply_run(const Circuit& c, const GateRun& run) {
  QSV_REQUIRE(c.num_qubits() == num_qubits_, "register size mismatch");
  QSV_REQUIRE(run.first + run.count <= c.gates().size(),
              "gate run out of range");
  if (run.sweep) {
    apply_sweep_run(c, run.first, run.count);
  } else {
    for (std::size_t i = 0; i < run.count; ++i) {
      apply(c.gate(run.first + i));
    }
  }
}

template <class S>
real_t DistStateVector<S>::probability_of_one(qubit_t qubit) const {
  QSV_REQUIRE(qubit >= 0 && qubit < num_qubits_, "qubit out of range");
  real_t p = 0;
  for (rank_t r = 0; r < num_ranks(); ++r) {
    const amp_index base = static_cast<amp_index>(r) << local_qubits_;
    for (amp_index i = 0; i < local_amps(); ++i) {
      if (bits::bit(base | i, qubit)) {
        p += std::norm(slices_[r].get(i));
      }
    }
  }
  return p;  // conceptually an MPI_Allreduce of the local partial sums
}

template <class S>
real_t DistStateVector<S>::norm_sq() const {
  real_t acc = 0;
  for (rank_t r = 0; r < num_ranks(); ++r) {
    for (amp_index i = 0; i < local_amps(); ++i) {
      acc += std::norm(slices_[r].get(i));
    }
  }
  return acc;
}

template <class S>
int DistStateVector<S>::measure(qubit_t qubit, Rng& rng) {
  const real_t p1 = probability_of_one(qubit);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  const real_t keep_p = outcome ? p1 : 1 - p1;
  QSV_REQUIRE(keep_p > 0, "measured an outcome with zero probability");
  const real_t scale = 1 / std::sqrt(keep_p);
  for (rank_t r = 0; r < num_ranks(); ++r) {
    const amp_index base = static_cast<amp_index>(r) << local_qubits_;
    for (amp_index i = 0; i < local_amps(); ++i) {
      if (bits::bit(base | i, qubit) == outcome) {
        slices_[r].set(i, slices_[r].get(i) * scale);
      } else {
        slices_[r].set(i, cplx{0, 0});
      }
    }
  }
  return outcome;
}

template <class S>
std::uint32_t DistStateVector<S>::slice_crc(rank_t r) const {
  QSV_REQUIRE(r >= 0 && r < num_ranks(), "rank out of range");
  return packed_crc(slices().subspan(static_cast<std::size_t>(r), 1));
}

template <class S>
BasicStateVector<S> DistStateVector<S>::gather() const {
  BasicStateVector<S> sv(num_qubits_);
  const amp_index n = local_amps();
  for (rank_t r = 0; r < num_ranks(); ++r) {
    const amp_index first = static_cast<amp_index>(r) * n;
    std::copy_n(slices_[r].re(), n, sv.storage().re() + first);
    std::copy_n(slices_[r].im(), n, sv.storage().im() + first);
  }
  return sv;
}

template class DistStateVector<SoaStorage>;

}  // namespace qsv
