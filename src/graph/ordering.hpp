// ordering.hpp -- pluggable vertex-ordering policies for DODGr construction.
//
// TriPoll's push/pull decisions and wedge-closing cost are driven entirely by
// the vertex order `<+` (paper Secs. 3/4.3).  The seed implementation
// hard-codes degree order; Pashanasangi & Seshadhri ("Faster and Generalized
// Temporal Triangle Counting, via Degeneracy Ordering") show that ordering by
// the k-core peel sequence bounds every out-degree by the graph degeneracy,
// shrinking |W+| = sum_v C(d+(v), 2) well below what raw degree order
// achieves on skewed graphs.
//
// The subsystem has two parts:
//   * `ordering_policy` selects how the builder assigns each vertex its
//     ordering rank (the first component of `order_key`):
//       - degree:     rank = d(v), the seed behavior.
//       - degeneracy: rank = the vertex's peel-wave index from a distributed
//                     k-core peeling pass (below).
//   * `degeneracy_peel` runs that peeling pass collectively over the
//     builder's dense per-rank vertex slots: slot s of rank r is the s-th
//     smallest vertex id that r owns, and every neighbor is addressed as
//     (owner rank, slot at that owner), resolved once by the builder.
//
// The peel state is four flat slot arrays per rank: `remaining` (neighbors
// not yet removed), `pending` (decrements parked until the per-wave fold),
// `removed` and `rank` (the wave index).  Peeling proceeds in globally
// synchronized *waves*.  At level k, every still-alive slot whose remaining
// degree is <= k is removed in the current wave and notifies each neighbor
// once: one bulk message of neighbor slots per destination rank; a barrier
// lands all notifications before the wave's fold.
//
// Determinism guarantee (relied on by frozen snapshots and cross-backend
// result identity): a vertex's wave index -- and therefore its full order
// key (wave, splitmix64(id), id), whose hash/id components depend on nothing
// but the id -- is a pure structural function of the edge set, identical
// across rank counts, transport backends and message timing.  Two mechanisms
// enforce this:
//
//   * The scan performs no communication, so no decrement can land mid-scan:
//     wave membership is decided against a fixed snapshot of `remaining`.
//   * Decrement notifications NEVER touch `remaining` directly.  They add
//     to the target slot's `pending` entry and are folded into `remaining`
//     at exactly one point per wave, immediately after the wave's barrier.
//     Without the fold there is a barrier-exit race: the collectives that
//     follow the barrier stagger rank exits, so a fast rank's wave-w+1
//     decrements could reach a slow rank either before or after its
//     wave-w+1 scan, making membership timing-dependent.  With it,
//     `remaining[s]` at the wave-w scan equals (initial degree - all
//     decrements from waves < w) exactly: the barrier guarantees every
//     wave-(w-1) decrement has arrived by the fold, and no wave-w decrement
//     can be sent until its sender passes the collective the folding rank
//     participates in.
//
// The level only moves between waves.  The reduction that closes a wave
// also carries the smallest post-fold `remaining` of any alive slot, so the
// next wave's level is max(level, that minimum) and a level's exhaustion
// costs no extra empty wave.  A wave removes at least one vertex and wave
// indices count exactly the non-empty waves.
//
// A vertex removed in wave w has at most k not-yet-removed neighbors, and
// every neighbor ordered after it (same wave or later) is not-yet-removed,
// so out-degrees under the (wave, hash, id) order are bounded by the
// degeneracy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "graph/types.hpp"
#include "serial/serialize.hpp"

namespace tripoll::graph {

/// How the builder assigns ordering ranks (the first `order_key` component).
enum class ordering_policy : std::uint8_t {
  degree,      ///< rank = undirected degree (the paper's <+ order)
  degeneracy,  ///< rank = k-core peel-wave index (Pashanasangi & Seshadhri)
};

[[nodiscard]] constexpr const char* ordering_name(ordering_policy p) noexcept {
  switch (p) {
    case ordering_policy::degree: return "degree";
    case ordering_policy::degeneracy: return "degeneracy";
  }
  return "unknown";
}

/// Parse a CLI-style ordering name; nullopt on anything unrecognized.
[[nodiscard]] inline std::optional<ordering_policy> parse_ordering(
    std::string_view s) noexcept {
  if (s == "degree") return ordering_policy::degree;
  if (s == "degeneracy") return ordering_policy::degeneracy;
  return std::nullopt;
}

/// Collective summary of one peeling pass (identical on every rank).
struct degeneracy_stats {
  std::uint64_t degeneracy = 0;  ///< max peel level k that removed a vertex
  std::uint64_t waves = 0;       ///< total synchronized removal waves
  std::uint64_t vertices = 0;    ///< global vertex count peeled
};

/// One rank's peel over its dense vertex slots (see the file comment).
/// Constructed collectively: the instance is registered with the
/// communicator so decrement messages resolve to the receiving rank's twin.
class degeneracy_peel {
 public:
  /// `degree[s]` is slot s's undirected degree.
  degeneracy_peel(comm::communicator& c, std::vector<std::uint64_t> degree)
      : comm_(&c),
        remaining_(std::move(degree)),
        pending_(remaining_.size(), 0),
        rank_(remaining_.size(), 0),
        removed_(remaining_.size(), 0),
        handle_(c.register_object(*this)) {}

  ~degeneracy_peel() { comm_->deregister_object(handle_); }

  degeneracy_peel(const degeneracy_peel&) = delete;
  degeneracy_peel& operator=(const degeneracy_peel&) = delete;

  /// Collective: run the peel.  `for_neighbors(s, fn)` must call
  /// `fn(owner_rank, slot_at_owner)` once per (unique) neighbor of slot s.
  /// On return rank()[s] holds slot s's wave index.
  template <typename ForNeighbors>
  degeneracy_stats run(ForNeighbors&& for_neighbors);

  /// Wave index per slot (valid after run()).
  [[nodiscard]] const std::vector<std::uint64_t>& rank() const noexcept { return rank_; }

 private:
  /// (removed count, smallest remaining degree over alive slots): the one
  /// reduction that closes each wave.
  using wave_summary = std::pair<std::uint64_t, std::uint64_t>;

  struct decrement_handler {
    // Deliberately touches only `pending`: arrival timing must not
    // influence the `remaining` values the scans read.
    void operator()(comm::communicator& c, comm::dist_handle<degeneracy_peel> h,
                    const serial::wire_span<std::uint64_t>& slots) {
      degeneracy_peel& st = c.resolve(h);
      for (const std::uint64_t s : slots) st.decrement(s);
    }
  };

  void decrement(std::uint64_t s) {
    if (s >= pending_.size()) {
      throw std::runtime_error("tripoll: degeneracy_peel: decrement for slot " +
                               std::to_string(s) + " beyond this rank's " +
                               std::to_string(pending_.size()) + " vertices");
    }
    if (removed_[s] == 0) ++pending_[s];
  }

  [[nodiscard]] wave_summary reduce(std::uint64_t removed, std::uint64_t min_remaining) {
    return comm_->all_reduce(wave_summary{removed, min_remaining},
                             [](const wave_summary& a, const wave_summary& b) {
                               return wave_summary{a.first + b.first,
                                                   std::min(a.second, b.second)};
                             });
  }

  comm::communicator* comm_;
  std::vector<std::uint64_t> remaining_;  ///< neighbors not yet removed (fold-updated)
  std::vector<std::uint64_t> pending_;    ///< decrements parked until the per-wave fold
  std::vector<std::uint64_t> rank_;       ///< peel-wave index assigned at removal
  std::vector<std::uint8_t> removed_;
  comm::dist_handle<degeneracy_peel> handle_;
};

template <typename ForNeighbors>
degeneracy_stats degeneracy_peel::run(ForNeighbors&& for_neighbors) {
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  constexpr std::size_t kBatch = 8192;  // slots per decrement message (64 KiB)
  auto& c = *comm_;
  const auto nranks = static_cast<std::size_t>(c.size());
  std::vector<std::uint64_t> alive(remaining_.size());
  for (std::uint64_t s = 0; s < alive.size(); ++s) alive[s] = s;
  const auto min_alive = [&] {
    std::uint64_t m = kNone;
    for (const std::uint64_t s : alive) m = std::min(m, remaining_[s]);
    return m;
  };

  degeneracy_stats stats;
  auto [global_alive, global_min] = reduce(alive.size(), min_alive());
  stats.vertices = global_alive;
  std::uint64_t wave = 0;
  std::uint64_t level = 0;
  std::vector<std::vector<std::uint64_t>> outbox(nranks);
  std::vector<std::uint64_t> removed_now;

  while (global_alive > 0) {
    // Jump the level straight to the smallest remaining degree when the
    // current level is exhausted; the wave below then removes >= 1 vertex.
    level = std::max(level, global_min);
    stats.degeneracy = std::max(stats.degeneracy, level);

    // Mark: no communication happens in this scan, so nothing can move
    // `remaining` mid-scan (early decrement arrivals only park in
    // `pending`) -- a slot joins this wave iff its remaining degree after
    // the previous wave's fold is <= level.
    removed_now.clear();
    std::size_t kept = 0;
    for (const std::uint64_t s : alive) {
      if (remaining_[s] <= level) {
        removed_[s] = 1;
        rank_[s] = wave;
        removed_now.push_back(s);
      } else {
        alive[kept++] = s;
      }
    }
    alive.resize(kept);
    // Notify: each removed vertex decrements every neighbor exactly once,
    // batched into slot lists per destination rank.
    const auto ship = [&](std::size_t r) {
      if (outbox[r].empty()) return;
      c.async(static_cast<int>(r), decrement_handler{}, handle_,
              serial::as_wire_span(outbox[r]));
      outbox[r].clear();
    };
    for (const std::uint64_t s : removed_now) {
      for_neighbors(s, [&](int owner, std::uint64_t slot) {
        if (owner == c.rank()) {
          decrement(slot);
          return;
        }
        const auto r = static_cast<std::size_t>(owner);
        outbox[r].push_back(slot);
        if (outbox[r].size() >= kBatch) ship(r);
      });
    }
    for (std::size_t r = 0; r < nranks; ++r) ship(r);
    c.barrier();  // all of this wave's decrements have been parked by now
    // Fold point: the single place `remaining` moves.  No wave-(w+1)
    // decrement can exist yet (its sender is gated behind the all_reduce
    // below, which this rank has not entered), so the fold captures
    // exactly the decrements of waves <= w -- structurally determined.
    for (const std::uint64_t s : alive) {
      remaining_[s] -= std::min(remaining_[s], pending_[s]);
      pending_[s] = 0;
    }
    const auto [global_removed, next_min] = reduce(removed_now.size(), min_alive());
    if (global_removed == 0) {
      throw std::logic_error("tripoll: degeneracy_peel: wave " + std::to_string(wave) +
                             " at level " + std::to_string(level) + " removed nothing");
    }
    ++wave;
    global_alive -= global_removed;
    global_min = next_min;
  }
  stats.waves = wave;
  return stats;
}

}  // namespace tripoll::graph
