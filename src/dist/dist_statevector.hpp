// The distributed statevector engine: QuEST's execution model over the
// virtual cluster.
//
// The statevector is split evenly across 2^k ranks (one rank per simulated
// node, as in all the paper's experiments); the top k qubits select the
// rank. Every rank owns a communication buffer of the same size as its
// slice — the paper's "additional buffers are required in the MPI
// implementation, doubling the overall memory requirement".
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "cluster/cluster.hpp"
#include "cluster/faults.hpp"
#include "cluster/rank_team.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dist/events.hpp"
#include "dist/options.hpp"
#include "dist/plan.hpp"
#include "sv/statevector.hpp"
#include "sv/storage.hpp"
#include "sv/sweep.hpp"

namespace qsv {

template <class S>
class DistStateVector {
 public:
  /// Initialises |0...0> split over `num_ranks` (a power of two) ranks.
  DistStateVector(int num_qubits, int num_ranks, DistOptions opts = {});

  [[nodiscard]] int num_qubits() const { return num_qubits_; }
  [[nodiscard]] int num_ranks() const { return cluster_.num_ranks(); }
  [[nodiscard]] int local_qubits() const { return local_qubits_; }
  [[nodiscard]] amp_index local_amps() const {
    return amp_index{1} << local_qubits_;
  }
  [[nodiscard]] const DistOptions& options() const { return opts_; }

  void init_zero_state();
  void init_basis_state(amp_index index);

  /// Mirrors the amplitudes of a single-address-space state (test utility).
  void init_from(const BasicStateVector<S>& sv);

  void apply(const Gate& g);
  void apply(const Circuit& c);

  /// Applies one planned run (see plan_sweep_runs) — either a cache-tiled
  /// sweep or a gate-by-gate stretch. apply(Circuit) is exactly a loop over
  /// these; exposing the step lets drivers with deadlines or cancellation
  /// (qsv run --deadline-s, the serve executor) stop between runs, the
  /// safe points where every rank's slice reflects the same gate prefix.
  void apply_run(const Circuit& c, const GateRun& run);

  /// Re-applies `g` (and its decomposition) to rank `r`'s slice only: the
  /// rebuilt rank's solo catch-up replay after a spare-node substitution.
  /// Requires every sub-gate to run locally (see gate_runs_local). Emits
  /// ordinary kLocalGate events at a 1/num_ranks participating fraction —
  /// one node computing, the rest idle — and neither advances
  /// gates_applied() nor consults the fault plan: the replay is invisible
  /// to gate-indexed specs, whose one-shot latches stay fired anyway.
  void apply_to_rank(const Gate& g, rank_t r);

  /// True when `g` (after decomposition at the current width) involves no
  /// distributed exchange — the condition for a solo replay to be possible.
  [[nodiscard]] bool gate_runs_local(const Gate& g) const;

  /// Mailbox re-bind when a spare node takes over rank `r`: drops every
  /// queued message touching the rank in either direction, so the
  /// replacement can never consume a stale pre-failure payload.
  void rebind_rank(rank_t r);

  /// Shrink-to-survive: re-shards from 2^k to 2^(k-1) ranks. New rank n
  /// absorbs old ranks 2n (low half) and 2n+1 (high half); the pair
  /// containing `dead_rank` merges on the surviving member without network
  /// traffic (the dead slice was rebuilt from the checkpoint in place),
  /// every other odd rank ships its slice to its even partner through the
  /// cluster — so counters and the fault injector see the re-shard traffic,
  /// and a fault during it escalates to the caller (no retry wrapper: the
  /// driver falls back to restart). Returns the executed plan.
  ReshardPlan shrink_to_half(rank_t dead_rank);

  /// Elastic grow-back: re-shards from 2^k to 2^(k+1) ranks, the exact
  /// inverse of shrink_to_half. Survivor n keeps the low half of its doubled
  /// slice as new rank 2n and sheds the absorbed partner half to revived
  /// rank 2n+1 through the cluster (CRC-checked end-to-end and retried on
  /// transient faults, like any exchange). Transactional: a fault that
  /// exhausts the retries leaves the engine at the old width with the state
  /// untouched and rethrows. In threaded mode the revived ranks' slices are
  /// allocated first-touch on their own worker threads, so the pages land in
  /// the owning NUMA domain. Returns the executed plan.
  GrowBackPlan grow_back_double();

  /// Repeats grow_back_double until the engine is back at `target_ranks`
  /// (a power of two between the current width and the constructed width).
  /// A fault mid-sequence leaves the engine at the last consistent width
  /// (every completed doubling stands) and rethrows. Returns one executed
  /// plan per doubling.
  std::vector<GrowBackPlan> grow_back_to_full(int target_ranks);

  [[nodiscard]] cplx amplitude(amp_index global) const;
  void set_amplitude(amp_index global, cplx v);

  /// Every rank's resident amplitudes: slices()[r] holds global indices
  /// [r * local_amps(), (r + 1) * local_amps()). Whole-state reads (the
  /// digest, observables, checkpoint files) walk them rank by rank.
  [[nodiscard]] std::span<const S> slices() const { return slices_; }
  [[nodiscard]] std::span<S> slices() { return slices_; }

  /// Reduction across ranks, as QuEST computes it (local sums + allreduce).
  [[nodiscard]] real_t probability_of_one(qubit_t qubit) const;
  [[nodiscard]] real_t norm_sq() const;

  /// Measures and collapses (uses the same reduction + local scaling).
  int measure(qubit_t qubit, Rng& rng);

  /// Gathers the full state into a single-address-space statevector
  /// (test/example utility; register must be small).
  [[nodiscard]] BasicStateVector<S> gather() const;

  /// Ground-truth traffic counters from the virtual cluster.
  [[nodiscard]] const CommStats& comm_stats() const {
    return cluster_.stats();
  }

  /// Attaches an event listener (cost model or test recorder); may be null.
  void set_listener(ExecListener* listener) { listener_ = listener; }
  [[nodiscard]] ExecListener* listener() const { return listener_; }

  /// Attaches a fault injector (cluster/faults.hpp); null restores perfect
  /// transport. Injected node failures surface as NodeFailure at the gate
  /// boundary; dropped/corrupted messages are retried up to
  /// options().max_retries times before escalating to NodeFailure.
  /// Under the threaded engine the injector is switched to per-sender
  /// ordinals (see FaultInjector::OrdinalScope) so `drop@M:R` specs stay
  /// deterministic regardless of thread interleaving.
  void set_fault_injector(FaultInjector* injector) {
    injector_ = injector;
    cluster_.set_fault_injector(injector);
    if (injector_ != nullptr && team_ != nullptr) {
      injector_->set_scope(FaultInjector::OrdinalScope::kPerSender);
    }
  }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  /// Engine gate applications so far (post-decomposition; the index the
  /// fault plan's `fail@G` specs refer to).
  [[nodiscard]] std::uint64_t gates_applied() const { return gates_applied_; }

  /// Clears in-flight messages after a failure, so a restart-from-checkpoint
  /// resumes on a quiescent transport.
  void reset_transport() { cluster_.reset_queues(); }

  /// Counters over every cache-tiled sweep run executed so far.
  [[nodiscard]] const SweepStats& sweep_stats() const { return sweep_stats_; }

  /// CRC-32 over rank `r`'s packed amplitudes, i.e. of rank r's span of
  /// the `state crc32` stream (the guard layer's slice signature: captured
  /// at checkpoints, verified after restores).
  [[nodiscard]] std::uint32_t slice_crc(rank_t r) const;

  /// True when options().threading selected the ranks-as-threads engine.
  [[nodiscard]] bool threaded() const { return team_ != nullptr; }

  /// What the threaded runtime actually did (for the CLI summary line and
  /// tests); `enabled` false on the serial engine, other fields default.
  struct ThreadSummary {
    bool enabled = false;
    int threads = 0;
    PlacementPolicy placement = PlacementPolicy::kNone;
    int pinned = 0;   // workers that landed on their planned CPU
    int domains = 1;  // NUMA domains discovered on the host
    int cpus = 1;     // CPUs discovered on the host
    double numa_ratio = 1.0;
  };
  [[nodiscard]] ThreadSummary thread_summary() const;

 private:
  /// What one pairwise exchange streams. A full exchange streams the slice
  /// in amplitude chunks into recv_bufs_ and then runs `combine`; a half
  /// exchange (a one-high SWAP under DistOptions::half_exchange_swaps)
  /// streams the gathered half payload in byte chunks and scatters it back
  /// into the slice.
  struct Payload {
    bool half = false;
    /// Half payload: the SWAP's local target bit.
    int local_bit = 0;
    /// Full payload, overlapped policy: combines run over regions aligned
    /// to this many amplitudes, closed under the combine's partner reads
    /// (1 for elementwise combines, 2^(a+1) for a one-local-bit SWAP).
    amp_index align = 1;
    /// Full payload: combines pair member `side`'s amplitudes
    /// [first, first + count) with the ones it received.
    std::function<void(rank_t side, amp_index first, amp_index count)>
        combine;
  };

  /// Pair dispatcher for every distributed gate: maps the plan's combine
  /// kind to a payload, its alignment and its region kernel, then runs
  /// exchange() for every pair that moves amplitudes — each pair once on
  /// the serial engine, each rank on its own thread on the threaded one.
  void apply_distributed(const Gate& g, const OpPlan& plan);
  /// The exchange core every distributed gate runs (docs/COMMS.md): a
  /// chunk schedule with a *post* phase (pack a chunk or slice the gathered
  /// half payload, then send) and a *complete* phase (receive and unpack,
  /// then combine or scatter). The comm policy picks only the order and the
  /// retry unit: blocking posts and completes each chunk in turn,
  /// non-blocking posts everything then completes everything, overlapped
  /// posts everything then completes in frontier order while earlier
  /// regions combine. The serial engine runs each phase over both pair
  /// members (posts r->peer then peer->r, completes at peer then at r); a
  /// rank thread runs its own side.
  void exchange(rank_t r, rank_t peer, const Payload& p);
  /// Measured NUMA ratio for this exchange: numa_ratio_ when any
  /// participating pair spans domains under the placement plan, else 1.0.
  [[nodiscard]] double exchange_numa_ratio(const OpPlan& plan) const;
  void apply_sweep_run(const Circuit& c, std::size_t first,
                       std::size_t count);
  void emit(const ExecEvent& e);
  /// Consults the injector at a gate boundary; throws NodeFailure if a
  /// planned failure fires at this index, and applies any silent bitflips
  /// due at it (kBitFlip specs corrupt resident memory, not messages).
  void tick_gate();
  /// Retry driver for every exchange and the grow-back handoff: runs
  /// `attempt(a)` for a = 0, 1, ... with bounded retry on transient comm
  /// faults. A failed attempt purges the pair's messages carrying `tag`
  /// (all of them for kAnyTag) and records one retry charged
  /// `messages`/`bytes` plus backoff. With `rendezvous` (a rank thread
  /// running its own side) both pair members share each attempt's outcome
  /// through RankTeam::pair_arrive, so they retry or throw together and the
  /// lower rank purges and records the pair's single charge — the figures
  /// the serial engine records.
  template <class Fn>
  void retry(rank_t r, rank_t peer, bool rendezvous, int tag, int messages,
             std::uint64_t bytes, Fn&& attempt);
  /// Resizes every message buffer to one chunk at the current slice width.
  void size_message_scratch();

  int num_qubits_;
  int local_qubits_;
  DistOptions opts_;
  VirtualCluster cluster_;
  std::vector<S> slices_;       // one per rank
  std::vector<S> recv_bufs_;    // the doubling MPI buffers
  /// Ranks-as-threads runtime (null on the serial engine).
  std::unique_ptr<RankTeam> team_;
  /// Exchange staging: the packing area for one message and the pooled
  /// half-payload buffers (grown on the first half exchange, then reused).
  struct Scratch {
    std::vector<std::byte> msg;
    std::vector<std::byte> half_out, half_in;
  };
  /// One slot per rank thread, each first-touched by its thread. The serial
  /// engine keeps two, one per member of the pair being exchanged, and only
  /// slot 0 holds a message buffer: it packs one message at a time. Slot
  /// 0's message buffer also serves the re-shards on the orchestrator.
  std::vector<Scratch> scratch_;
  /// Measured (or configured) local-vs-remote bandwidth ratio; 1.0 on
  /// single-domain hosts, so exchange pricing is unchanged there.
  double numa_ratio_ = 1.0;
  int numa_domains_ = 1;
  int host_cpus_ = 1;
  SweepStats sweep_stats_;
  ExecListener* listener_ = nullptr;
  FaultInjector* injector_ = nullptr;
  std::uint64_t gates_applied_ = 0;
};

using DistStateVectorSoa = DistStateVector<SoaStorage>;

extern template class DistStateVector<SoaStorage>;

}  // namespace qsv
