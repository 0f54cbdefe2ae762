#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/inline_fn.hpp"
#include "sim/perf.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace hipcloud::sim {

/// Conservative parallel discrete-event coordinator: N single-threaded
/// EventLoops (one per shard) advance in rounds separated by one
/// barrier. One horizon rule, one seam mode, one barrier:
///
///  - Horizon rule. Every ordered shard pair (j,i) that links cross
///    carries a registered seam lookahead la(j,i): the minimum delivery
///    latency of those links. Each round, shard i may run to
///
///      horizon(i) = min over registered seams (j,i) of  l(j) + la(j,i)
///
///    where l(j) is a lower bound on the next instant shard j can fire
///    any event — the fixed point of l(j) = min(next(j), min_k l(k) +
///    la(k,j)) over the per-shard next-event times. Shards connected only
///    by slow seams take long strides; idle shards skip ahead; a fast
///    seam between two other shards never throttles them.
///  - Seam mode. Cross-shard posts are legal only on registered seams,
///    at or beyond the seam lookahead (both checked in post()); a pair
///    with no registered seam carries no traffic and imposes no horizon
///    constraint. net::ShardedWorld registers each CrossLinkHalf twin's
///    seam at connect time.
///  - Barrier. Workers run their shards to their horizons, then park at
///    the one barrier. Its completion step, with every worker parked,
///    drains every inbox and computes the next round's horizons.
///
/// Cross-shard traffic flows through per-(src,dst) inboxes:
///
///  - During a round, a shard posts a cross-shard event with post():
///    an absolute firing time plus a callback. Each (src,dst) cell has
///    exactly one writer (the source shard's worker), so appends are
///    plain vector pushes — no locks, no atomics.
///  - In the barrier completion, each destination (in shard-id order)
///    takes the cells addressed to it, sorts the entries by (when, src
///    shard, source post index), and schedules them into its own loop
///    via EventLoop::schedule_cross, which stamps the entry with a (src,
///    post index) identity fixed at post time. The barrier crossing
///    between a post and its drain gives the happens-before edge.
///
/// Determinism: the shard partition is part of the world's topology, and
/// nothing in the horizon computation, drain order, or per-loop event
/// order depends on the number of worker threads or on OS scheduling.
/// Moreover the per-loop (when, seq) firing streams are invariant across
/// *epoch slicings*: local events draw seq from the loop's FIFO counter
/// (which cross arrivals do not consume) and cross arrivals carry their
/// post-time identity, so draining the same posts at different barriers
/// cannot reorder or rename any firing. The per-shard FNV-1a hashes and
/// their shard-id-order merge are therefore byte-identical whether the
/// same world runs on 1 worker or N, in one run(until) or in several
/// bounded segments.
class ShardCoordinator {
 public:
  ShardCoordinator() = default;
  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Register a shard's loop; returns its shard id (dense, 0-based).
  /// All shards must be added before the first run().
  std::size_t add_shard(EventLoop* loop);

  std::size_t shard_count() const { return shards_.size(); }
  EventLoop* shard(std::size_t id) { return shards_[id]; }

  /// Record that links cross the ordered seam (src,dst) with delivery
  /// latency >= `lookahead`. Shrink-only min: registering a faster link
  /// later tightens the pair (legal between runs — outstanding posts
  /// were validated against the older, larger bound). Posts on a
  /// registered pair must arrive at least `pair_lookahead(src,dst)`
  /// after the source's committed clock.
  void register_pair_lookahead(std::size_t src, std::size_t dst,
                               Duration lookahead);

  /// The registered seam lookahead, or -1 when (src,dst) has none.
  Duration pair_lookahead(std::size_t src, std::size_t dst) const;

  /// Post a cross-shard event: run `fn` in shard `dst`'s loop at absolute
  /// time `when`. Called only from `src`'s worker during a round (or
  /// from the setup thread before run()). Checked: (src,dst) must be a
  /// registered seam, and `when` must be at least pair_lookahead(src,dst)
  /// after src's clock — a later post could land inside a round `dst`
  /// has already run, and the loop would silently fire it late.
  void post(std::size_t src, std::size_t dst, Time when, InlineFn fn);

  /// Run every shard to `until` (inclusive, like EventLoop::run; pass -1
  /// to run until all loops and inboxes drain) using `workers` threads.
  /// workers is clamped to [1, shard_count]; 1 runs inline on the caller;
  /// 0 picks a count automatically (see plan_workers). Returns the total
  /// number of events fired across all shards.
  std::size_t run(Time until, unsigned workers = 1);

  /// The worker count run() will actually use for `requested`. An
  /// explicit request (>= 1) is only clamped to [1, shard_count]. A
  /// request of 0 sizes the pool from the work on hand: one worker per
  /// kAutoEventsPerWorker currently-pending events, capped by the host's
  /// hardware concurrency and the shard count — so tiny worlds run
  /// inline instead of paying barrier traffic for microseconds of work.
  unsigned plan_workers(unsigned requested) const;

  /// Auto-sizing grain: pending events per worker below which adding a
  /// worker costs more in barrier rounds than it saves in parallelism
  /// (measured on the 1k-client fig_scale point, which regressed to
  /// 0.895x at 8 workers before the clamp).
  static constexpr std::size_t kAutoEventsPerWorker = 2048;

  /// Cross-shard events still waiting in inboxes (only meaningful between
  /// runs; exposed for tests).
  std::size_t inbox_pending() const;

  /// Barrier rounds executed across all runs so far. A pure function of
  /// the simulated schedule — identical at every worker count — and the
  /// denominator of the events-per-epoch bench column.
  std::uint64_t epochs() const { return epochs_; }

  /// Total wall-clock nanoseconds workers spent parked at the barrier,
  /// summed across workers and runs. Telemetry only (never feeds
  /// simulation state or the hash): the BENCH_scale.json barrier-wait
  /// column.
  std::uint64_t barrier_wait_ns() const {
    return barrier_wait_ns_.load(std::memory_order_relaxed);
  }

  /// Per-shard counters merged in shard-id order — never in worker
  /// completion order — so the merged stream (and the JSON it feeds) is
  /// byte-identical for every worker count. The coordinator's own
  /// epoch/stride counters ride along in the shard_* fields.
  PerfCounters merged_perf() const;

  /// The world determinism hash: the shard-id-order merge of the
  /// per-shard FNV-1a firing streams.
  std::uint64_t world_hash() const { return merged_perf().determinism_hash; }

 private:
  struct CrossEvent {
    Time when;
    std::uint64_t post_idx;  // per-source posting counter: drain tiebreak
    InlineFn fn;
  };
  /// One single-writer mailbox per (src,dst) shard pair.
  struct Inbox {
    std::vector<CrossEvent> events;
  };

  void compute_horizons(Time until, bool& done);
  void drain_into(std::size_t dst);
  void record_failure() HIPCLOUD_EXCLUDES(failure_mu_);

  std::vector<EventLoop*> shards_;
  // Single-writer mailbox cells: inboxes_[src * n + dst] and
  // post_seq_[src] are appended only by src's worker during a round, so
  // the ownership analyzer treats them as confined to the posting shard.
  // The only other access is drain_into, inside the barrier completion
  // while every worker is parked.
  std::vector<Inbox> inboxes_;            // hipcheck:shard_owned
  std::vector<std::uint64_t> post_seq_;   // hipcheck:shard_owned
  std::vector<Duration> pair_lookahead_;  // src * shard_count + dst; -1 unset

  // Round state: written only inside the barrier completion (all workers
  // parked) or before the workers start, read by workers after release —
  // the barrier itself is the synchronization. horizons_[i] is the bound
  // shard i runs to this round (-1: unconstrained, run to drain).
  std::vector<Time> horizons_;  // hipcheck:shard_shared
  std::vector<Time> lbts_;      // hipcheck:shard_shared — fixed-point scratch

  // Deterministic schedule counters (see epochs()); barrier-published
  // like the horizons above.
  std::uint64_t epochs_ = 0;     // hipcheck:shard_shared
  std::uint64_t strides_ = 0;    // hipcheck:shard_shared
  std::uint64_t stride_ns_ = 0;  // hipcheck:shard_shared

  // Wall-clock telemetry (see barrier_wait_ns()); relaxed atomic, any
  // worker may add at any time.
  std::atomic<std::uint64_t> barrier_wait_ns_{0};  // hipcheck:shard_shared

  // Per-run worker failure funnel: a throwing shard callback must not
  // deadlock the barrier protocol, so workers record here, go passive,
  // and the round completion shuts the run down.
  std::atomic<bool> failed_{false};  // hipcheck:shard_shared
  Mutex failure_mu_;
  std::exception_ptr first_failure_ HIPCLOUD_GUARDED_BY(failure_mu_);  // hipcheck:shard_shared
};

}  // namespace hipcloud::sim
