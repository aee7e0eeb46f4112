// builder.hpp -- distributed construction of the DODGr from raw edges.
//
// The input is a stream of undirected edges with optional metadata plus
// per-vertex metadata, contributed by every rank.  Construction is itself a
// distributed computation (the input never lands on one rank).  Each rank
// stages its share in flat arrays -- no map node per edge or per vertex --
// and every phase ships its traffic as per-destination wire_span batches,
// applying the rank's own share in place:
//
//   P1  scatter  : add_edge(u, v) sends the arc u->v to Rank(u) and v->u to
//                  Rank(v); add_vertex_meta(v) sends (v, meta) to Rank(v).
//                  Arrivals append to a flat arc array and a metadata array.
//   P2  dedup    : after one barrier each rank sorts its arcs by (src, dst)
//                  -- stably, so duplicates stay in arrival order -- and
//                  folds duplicates under MergePolicy.  The sorted arcs are
//                  a CSR adjacency over dense vertex slots: slot s is the
//                  s-th smallest vertex id the rank owns, arc sources and
//                  metadata-only vertices alike (the latter with an empty
//                  row).  Per vertex, the last metadata to arrive wins.
//   P3  twins    : every arc u->v learns the index of its twin v->u on
//                  Rank(v), and v's slot there, through one sorted merge
//                  join: rank r's arcs toward rank q in r's (src, dst)
//                  order pair off one-to-one with q's arcs toward r in q's
//                  (dst, src) order, so each rank sends every peer its
//                  (arc, slot) list once and the peer assigns it by position.
//   P3b ordering : d(v) is the CSR row length; the <+ rank is d(v) or the
//                  peel-wave index of degeneracy_peel (graph/ordering.hpp),
//                  which addresses each neighbor by its twin slot.
//   P4  exchange : each arc u->v ships (twin, rank(u), meta(u)) to Rank(v),
//                  which stores the neighbor's rank and metadata at the
//                  twin's index.
//   P5  assemble : locally orient edges by <+, sort Adjm+(v), fill records.
//   P6  d+ flow  : each arc u->v with v <+ u ships (twin, d+(u)) to Rank(v),
//                  which patches the Adjm+(v) entry that twin produced.
//
// A handler of one phase may run on a rank before that rank has finished
// the previous phase's local work only through a communication call it
// makes itself (barrier exit is a rendezvous), so each phase allocates
// the arrays its peers write into before its first send.  P4 arrivals can
// land during the peel's collectives, so their arrays exist before P3b.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/key_hash.hpp"
#include "graph/dodgr.hpp"
#include "graph/ordering.hpp"
#include "graph/types.hpp"
#include "serial/serialize.hpp"
#include "serial/wire_guard.hpp"

namespace tripoll::graph {

/// Merge policies for duplicate undirected edges (multigraph reduction).
namespace merge {

/// First writer wins: each endpoint's owner keeps the first copy of the
/// edge to arrive there.  On one rank that is the first one added; across
/// ranks arrival order is nondeterministic and the two endpoints' owners
/// may keep different copies (the DODGr stores the one at the lower
/// endpoint's owner), acceptable for metadata-free counting.
struct keep_existing {
  template <typename EM>
  void operator()(EM& /*existing*/, const EM& /*incoming*/) const noexcept {}
};

/// Keep the smallest metadata value (deterministic; with timestamp metadata
/// this is the paper's "chronologically-first comment" rule).
struct keep_least {
  template <typename EM>
  void operator()(EM& existing, const EM& incoming) const {
    if (incoming < existing) existing = incoming;
  }
};

/// Keep the largest metadata value.
struct keep_greatest {
  template <typename EM>
  void operator()(EM& existing, const EM& incoming) const {
    if (existing < incoming) existing = incoming;
  }
};

}  // namespace merge

namespace builder_detail {

/// Allocator of the builder's staging arrays.  Blocks of 1 MiB and more are
/// mapped and unmapped directly, so a finished build hands its staging back
/// to the operating system.  Released through malloc, such blocks would
/// raise its dynamic mmap threshold, and the arrays of every later build
/// would then stay resident in the heap after being freed.
template <typename T>
struct bulk_allocator {
  using value_type = T;
  static constexpr std::size_t kMappedBytes = std::size_t{1} << 20;

  bulk_allocator() = default;
  template <typename U>
  bulk_allocator(const bulk_allocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMappedBytes) return static_cast<T*>(::operator new(bytes));
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMappedBytes) {
      ::operator delete(p);
    } else {
      ::munmap(p, bytes);
    }
  }

  friend bool operator==(const bulk_allocator&, const bulk_allocator&) noexcept {
    return true;
  }
};

template <typename T>
using bulk_vector = std::vector<T, bulk_allocator<T>>;

/// Stable LSD radix sort of `v` by the 64-bit `key(e)`, 11 bits per pass.
/// A digit that is equal in every key costs no pass, so ids below 2^22
/// sort in two.  `scratch` is working storage; it ends up holding v's old
/// buffer (or nothing when no pass ran).
template <typename T, typename Key>
void radix_sort(bulk_vector<T>& v, bulk_vector<T>& scratch, Key key) {
  constexpr unsigned kBits = 11;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  constexpr unsigned kDigits = (64 + kBits - 1) / kBits;
  std::vector<std::array<std::size_t, kMask + 1>> count(kDigits);
  for (const T& e : v) {
    const std::uint64_t k = key(e);
    for (unsigned d = 0; d < kDigits; ++d) ++count[d][(k >> (kBits * d)) & kMask];
  }
  for (unsigned d = 0; d < kDigits; ++d) {
    auto& slots = count[d];
    if (std::find(slots.begin(), slots.end(), v.size()) != slots.end()) continue;
    std::size_t first = 0;
    for (auto& n : slots) first += std::exchange(n, first);
    scratch.resize(v.size());
    for (T& e : v) scratch[slots[(key(e) >> (kBits * d)) & kMask]++] = std::move(e);
    v.swap(scratch);
  }
}

}  // namespace builder_detail

/// Bulk-message element of builder phases P3, P4 and P6: one value (the
/// sender's arc index and slot, its <+ rank, or its d+) addressed to one
/// arc of the receiving rank's array.
struct arc_value {
  std::uint64_t arc = 0;
  std::uint64_t value = 0;
};
TRIPOLL_WIRE_ASSERT(arc_value, arc, value);

template <typename VertexMeta, typename EdgeMeta, typename MergePolicy = merge::keep_existing>
class graph_builder {
 public:
  using graph_type = dodgr<VertexMeta, EdgeMeta>;
  using self = graph_builder<VertexMeta, EdgeMeta, MergePolicy>;

  explicit graph_builder(comm::communicator& c,
                         ordering_policy ordering = ordering_policy::degree)
      : comm_(&c),
        ordering_(ordering),
        arcs_out_(static_cast<std::size_t>(c.size())),
        meta_out_(static_cast<std::size_t>(c.size())),
        handle_(c.register_object(*this)) {}

  ~graph_builder() { comm_->deregister_object(handle_); }

  graph_builder(const graph_builder&) = delete;
  graph_builder& operator=(const graph_builder&) = delete;

  [[nodiscard]] ordering_policy ordering() const noexcept { return ordering_; }

  /// Contribute one undirected edge.  Self-loops are dropped (triangles
  /// never use them); duplicates merge under MergePolicy at build time.
  void add_edge(vertex_id u, vertex_id v, const EdgeMeta& meta = EdgeMeta{}) {
    if (u == v) {
      ++dropped_self_loops_;
      return;
    }
    stage_arc(u, v, meta);
    stage_arc(v, u, meta);
  }

  /// Contribute metadata for a vertex (may arrive from any rank).
  void add_vertex_meta(vertex_id v, const VertexMeta& meta) {
    const int r = owner(v);
    if (r == comm_->rank()) {
      st_.meta_in.emplace_back(v, meta);
      return;
    }
    stage<meta_handler>(meta_out_, r, v, meta);
  }

  [[nodiscard]] std::uint64_t local_dropped_self_loops() const noexcept {
    return dropped_self_loops_;
  }

  /// Peeling summary of the last build (meaningful after build_into with
  /// ordering_policy::degeneracy; zero-initialized otherwise).
  [[nodiscard]] const degeneracy_stats& peel_stats() const noexcept {
    return peel_stats_;
  }

  /// Collective: run the construction pipeline, filling `g`.  The builder's
  /// staging storage is released afterwards; the builder may not be reused.
  void build_into(graph_type& g) {
    auto& c = *comm_;
    for (int r = 0; r < c.size(); ++r) {
      ship<arcs_handler>(arcs_out_, r);
      ship<meta_handler>(meta_out_, r);
    }
    c.barrier();  // P1 complete: every arc and every vertex meta has landed

    assemble_rows();
    resolve_twins();
    assign_ranks();
    exchange_ninfo();
    assemble_records(g);
    flow_dplus();

    st_ = staging{};
    g.set_ordering(ordering_);
    g.invalidate_census();
  }

 private:
  /// Entries per bulk message (64 KiB of arc_value).
  static constexpr std::size_t kBatch = 4096;
  static constexpr std::uint8_t kInfoArrived = 1;   ///< P4 landed on this arc
  static constexpr std::uint8_t kDplusArrived = 2;  ///< P6 landed on this arc

  /// One destination's pending bulk message: `entries` ship as a wire_span,
  /// `metas` as a parallel column that stays empty for stateless Meta.
  template <typename Entry, typename Meta>
  struct batch {
    std::vector<Entry> entries;
    std::vector<Meta> metas;

    void push(const Entry& e, const Meta& m) {
      entries.push_back(e);
      if constexpr (!std::is_empty_v<Meta>) metas.push_back(m);
    }
  };

  template <typename T>
  using bulk_vector = builder_detail::bulk_vector<T>;

  struct staged_arc {
    vertex_id src = 0;
    vertex_id dst = 0;
    [[no_unique_address]] EdgeMeta meta{};
  };

  /// Everything build_into stages; assigning a fresh one releases it all.
  struct staging {
    // P1 arrivals (arrival order).
    bulk_vector<staged_arc> arcs_in;
    bulk_vector<std::pair<vertex_id, VertexMeta>> meta_in;
    // P2: CSR over dense slots.  verts[s] is slot s's id; its arcs are
    // [offsets[s], offsets[s+1]).
    bulk_vector<vertex_id> verts;
    bulk_vector<VertexMeta> vmeta;
    bulk_vector<std::uint64_t> offsets;
    bulk_vector<vertex_id> dst;
    bulk_vector<EdgeMeta> emeta;
    bulk_vector<int> dst_owner;
    // P3: twin arc index and target slot on dst_owner.  twin_order lists
    // this rank's arcs toward peer q, in (dst, src) order, at
    // [peer_first[q], peer_first[q+1]); twins_landed counts q's reports.
    bulk_vector<std::uint64_t> twin;
    bulk_vector<std::uint64_t> tgt_slot;
    bulk_vector<std::uint64_t> twin_order;
    std::vector<std::uint64_t> peer_first;
    std::vector<std::uint64_t> twins_landed;
    // P3b: <+ rank per slot.  P4: the neighbor's rank and meta per arc.
    bulk_vector<std::uint64_t> rank;
    bulk_vector<std::uint64_t> nrank;
    bulk_vector<VertexMeta> nmeta;
    bulk_vector<std::uint8_t> arrived;
    // P5: the Adjm+ entry each out-arc became (nullptr for in-arcs).
    bulk_vector<adj_entry<VertexMeta, EdgeMeta>*> out_entry;
  };

  [[nodiscard]] int owner(vertex_id v) const noexcept {
    return comm_->owner(comm::key_hash<vertex_id>{}(v));
  }

  // --- P1 ---------------------------------------------------------------------

  void stage_arc(vertex_id src, vertex_id dst, const EdgeMeta& meta) {
    const int r = owner(src);
    if (r == comm_->rank()) {
      st_.arcs_in.push_back(staged_arc{src, dst, meta});
      return;
    }
    stage<arcs_handler>(arcs_out_, r, edge{src, dst}, meta);
  }

  /// Add one entry to rank r's pending batch, shipping it when full.
  template <typename Handler, typename Entry, typename Meta>
  void stage(std::vector<batch<Entry, Meta>>& out, int r, const Entry& e, const Meta& m) {
    auto& b = out[static_cast<std::size_t>(r)];
    b.push(e, m);
    if (b.entries.size() >= kBatch) ship<Handler>(out, r);
  }

  template <typename Handler, typename Entry, typename Meta>
  void ship(std::vector<batch<Entry, Meta>>& out, int r) {
    auto& b = out[static_cast<std::size_t>(r)];
    if (b.entries.empty()) return;
    comm_->async(r, Handler{}, handle_, serial::as_wire_span(b.entries), b.metas);
    b.entries.clear();
    b.metas.clear();
  }

  template <typename Meta>
  static const Meta& meta_at(const std::vector<Meta>& metas, std::size_t k) {
    if constexpr (std::is_empty_v<Meta>) {
      static const Meta empty{};
      (void)metas;
      (void)k;
      return empty;
    } else {
      return metas[k];
    }
  }

  template <typename Meta>
  static void check_columns(std::size_t entries, const std::vector<Meta>& metas,
                            const char* phase) {
    if (!std::is_empty_v<Meta> && metas.size() != entries) {
      throw std::runtime_error("tripoll: graph_builder " + std::string(phase) + ": " +
                               std::to_string(entries) + " entries arrived with " +
                               std::to_string(metas.size()) + " metadata values");
    }
  }

  void land_arcs(const serial::wire_span<edge>& arcs, const std::vector<EdgeMeta>& metas) {
    check_columns(arcs.size(), metas, "P1");
    for (std::size_t k = 0; k < arcs.size(); ++k) {
      const edge e = arcs[k];
      st_.arcs_in.push_back(staged_arc{e.u, e.v, meta_at(metas, k)});
    }
  }

  void land_meta(const serial::wire_span<vertex_id>& ids,
                 const std::vector<VertexMeta>& metas) {
    check_columns(ids.size(), metas, "P1");
    for (std::size_t k = 0; k < ids.size(); ++k) {
      st_.meta_in.emplace_back(ids[k], meta_at(metas, k));
    }
  }

  // --- P2 ---------------------------------------------------------------------

  void assemble_rows() {
    auto& arcs = st_.arcs_in;
    {
      bulk_vector<staged_arc> scratch;
      builder_detail::radix_sort(arcs, scratch, [](const staged_arc& a) { return a.dst; });
      builder_detail::radix_sort(arcs, scratch, [](const staged_arc& a) { return a.src; });
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (kept > 0 && arcs[kept - 1].src == arcs[i].src && arcs[kept - 1].dst == arcs[i].dst) {
        MergePolicy{}(arcs[kept - 1].meta, arcs[i].meta);
      } else {
        if (kept != i) arcs[kept] = std::move(arcs[i]);
        ++kept;
      }
    }
    arcs.resize(kept);

    auto& metas = st_.meta_in;
    {
      bulk_vector<std::pair<vertex_id, VertexMeta>> scratch;
      builder_detail::radix_sort(metas, scratch, [](const auto& m) { return m.first; });
    }

    // Slots: the sorted union of arc sources and metadata ids.
    st_.offsets.assign(1, 0);
    st_.dst.reserve(arcs.size());
    st_.emeta.reserve(arcs.size());
    std::size_t a = 0, m = 0;
    while (a < arcs.size() || m < metas.size()) {
      vertex_id v = a < arcs.size() ? arcs[a].src : metas[m].first;
      if (m < metas.size()) v = std::min(v, metas[m].first);
      st_.verts.push_back(v);
      VertexMeta meta{};
      for (; m < metas.size() && metas[m].first == v; ++m) meta = std::move(metas[m].second);
      st_.vmeta.push_back(std::move(meta));
      for (; a < arcs.size() && arcs[a].src == v; ++a) {
        st_.dst.push_back(arcs[a].dst);
        st_.emeta.push_back(std::move(arcs[a].meta));
      }
      st_.offsets.push_back(st_.dst.size());
    }
    arcs = {};
    metas = {};
    st_.dst_owner.resize(st_.dst.size());
    for (std::size_t i = 0; i < st_.dst.size(); ++i) st_.dst_owner[i] = owner(st_.dst[i]);
  }

  // --- P3 ---------------------------------------------------------------------

  void resolve_twins() {
    auto& c = *comm_;
    const auto nranks = static_cast<std::size_t>(c.size());
    const std::size_t narcs = st_.dst.size();
    st_.twin.assign(narcs, 0);
    st_.tgt_slot.assign(narcs, 0);

    // (dst, src) order: arc indices are in src order, so a stable sort by
    // dst yields it; a stable split by the dst's owner then groups it by peer.
    bulk_vector<std::uint64_t> by_dst(narcs);
    std::iota(by_dst.begin(), by_dst.end(), std::uint64_t{0});
    builder_detail::radix_sort(by_dst, st_.twin_order,
                               [&](std::uint64_t i) { return st_.dst[i]; });
    st_.peer_first.assign(nranks + 1, 0);
    for (const int r : st_.dst_owner) ++st_.peer_first[static_cast<std::size_t>(r) + 1];
    std::partial_sum(st_.peer_first.begin(), st_.peer_first.end(), st_.peer_first.begin());
    std::vector<std::uint64_t> fill(st_.peer_first.begin(), st_.peer_first.end() - 1);
    st_.twin_order.resize(narcs);
    for (const std::uint64_t i : by_dst) {
      st_.twin_order[fill[static_cast<std::size_t>(st_.dst_owner[i])]++] = i;
    }
    by_dst = {};
    st_.twins_landed.assign(nranks, 0);

    // Send each peer this rank's (arc, slot) list in (src, dst) order.
    std::vector<std::vector<arc_value>> out(nranks);
    std::vector<std::uint64_t> sent(nranks, 0);
    const auto ship = [&](std::size_t r) {
      if (out[r].empty()) return;
      const int from = c.rank();
      if (static_cast<int>(r) == from) {
        land_twins(from, sent[r], out[r]);
      } else {
        c.async(static_cast<int>(r), twins_handler{}, handle_, from, sent[r],
                serial::as_wire_span(out[r]));
      }
      sent[r] += out[r].size();
      out[r].clear();
    };
    for_each_arc([&](std::size_t s, std::uint64_t i) {
      const auto r = static_cast<std::size_t>(st_.dst_owner[i]);
      out[r].push_back(arc_value{i, s});
      if (out[r].size() >= kBatch) ship(r);
    });
    for (std::size_t r = 0; r < nranks; ++r) ship(r);

    // P4 arrivals may land during P3b's collectives.
    st_.nrank.assign(narcs, 0);
    if constexpr (!std::is_empty_v<VertexMeta>) st_.nmeta.resize(narcs);
    st_.arrived.assign(narcs, 0);
    c.barrier();

    for (std::size_t r = 0; r < nranks; ++r) {
      const auto held = st_.peer_first[r + 1] - st_.peer_first[r];
      if (st_.twins_landed[r] != held) {
        throw std::runtime_error("tripoll: graph_builder P3: rank " + std::to_string(r) +
                                 " reported " + std::to_string(st_.twins_landed[r]) +
                                 " twins for the " + std::to_string(held) +
                                 " arcs this rank holds toward it");
      }
    }
    st_.twin_order = {};
  }

  template <typename Range>
  void land_twins(int from, std::uint64_t first, const Range& twins) {
    if (from < 0 || from >= comm_->size()) {
      throw std::runtime_error("tripoll: graph_builder P3: twins from unknown rank " +
                               std::to_string(from));
    }
    const auto peer = static_cast<std::size_t>(from);
    const auto held = st_.peer_first[peer + 1] - st_.peer_first[peer];
    if (first > held || twins.size() > held - first) {
      throw std::runtime_error("tripoll: graph_builder P3: rank " + std::to_string(from) +
                               " sent more twins than the " + std::to_string(held) +
                               " arcs this rank holds toward it");
    }
    const auto* order = st_.twin_order.data() + st_.peer_first[peer] + first;
    for (std::size_t k = 0; k < twins.size(); ++k) {
      const arc_value t = twins[k];
      const auto i = order[k];
      st_.twin[i] = t.arc;
      st_.tgt_slot[i] = t.value;
    }
    st_.twins_landed[static_cast<std::size_t>(from)] += twins.size();
  }

  // --- P3b --------------------------------------------------------------------

  void assign_ranks() {
    const std::size_t nverts = st_.verts.size();
    std::vector<std::uint64_t> degree(nverts);
    for (std::size_t s = 0; s < nverts; ++s) degree[s] = st_.offsets[s + 1] - st_.offsets[s];
    if (ordering_ != ordering_policy::degeneracy) {
      st_.rank.assign(degree.begin(), degree.end());
      return;
    }
    degeneracy_peel peel(*comm_, std::move(degree));
    peel_stats_ = peel.run([&](std::uint64_t s, auto&& fn) {
      for (auto i = st_.offsets[s]; i < st_.offsets[s + 1]; ++i) {
        fn(st_.dst_owner[i], st_.tgt_slot[i]);
      }
    });
    st_.rank.assign(peel.rank().begin(), peel.rank().end());
    st_.tgt_slot = {};
  }

  // --- P4 ---------------------------------------------------------------------

  void exchange_ninfo() {
    auto& c = *comm_;
    std::vector<batch<arc_value, VertexMeta>> out(static_cast<std::size_t>(c.size()));
    for_each_arc([&](std::size_t s, std::uint64_t i) {
      const int r = st_.dst_owner[i];
      if (r == c.rank()) {
        land_ninfo(st_.twin[i], st_.rank[s], st_.vmeta[s]);
      } else {
        stage<ninfo_handler>(out, r, arc_value{st_.twin[i], st_.rank[s]}, st_.vmeta[s]);
      }
    });
    for (int r = 0; r < c.size(); ++r) ship<ninfo_handler>(out, r);
    c.barrier();
    for_each_arc([&](std::size_t s, std::uint64_t i) {
      if ((st_.arrived[i] & kInfoArrived) == 0) missing("P4", "P4 exchange", s, i);
    });
  }

  void land_ninfo(std::uint64_t j, std::uint64_t rank, const VertexMeta& meta) {
    if (j >= st_.nrank.size()) out_of_range("P4", j);
    st_.nrank[j] = rank;
    if constexpr (!std::is_empty_v<VertexMeta>) st_.nmeta[j] = meta;
    st_.arrived[j] |= kInfoArrived;
  }

  // --- P5 ---------------------------------------------------------------------

  void assemble_records(graph_type& g) {
    auto& store = g.storage();
    store.local_storage().reserve(store.local_size() + st_.verts.size());
    st_.out_entry.assign(st_.dst.size(), nullptr);
    std::vector<std::pair<order_key, std::uint64_t>> keyed;
    for (std::size_t s = 0; s < st_.verts.size(); ++s) {
      const vertex_id v = st_.verts[s];
      const auto lo = st_.offsets[s], hi = st_.offsets[s + 1];
      const order_key key_v = make_order_key(v, st_.rank[s]);
      keyed.clear();
      for (auto i = lo; i < hi; ++i) {
        const order_key key_u = make_order_key(st_.dst[i], st_.nrank[i]);
        if (key_v < key_u) keyed.emplace_back(key_u, i);
      }
      std::sort(keyed.begin(), keyed.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      auto& out = store.local_at_or_create(v);
      out.degree = hi - lo;
      out.order_rank = st_.rank[s];
      out.meta = std::move(st_.vmeta[s]);
      out.adj.clear();
      out.adj.reserve(keyed.size());
      for (const auto& [key_u, i] : keyed) {
        out.adj.push_back(adj_entry<VertexMeta, EdgeMeta>{
            st_.dst[i], st_.nrank[i], 0, std::move(st_.emeta[i]), neighbor_meta(i)});
      }
      for (std::size_t k = 0; k < keyed.size(); ++k) st_.out_entry[keyed[k].second] = &out.adj[k];
    }
  }

  [[nodiscard]] VertexMeta neighbor_meta(std::uint64_t i) {
    if constexpr (std::is_empty_v<VertexMeta>) {
      (void)i;
      return VertexMeta{};
    } else {
      return std::move(st_.nmeta[i]);
    }
  }

  // --- P6 ---------------------------------------------------------------------

  void flow_dplus() {
    auto& c = *comm_;
    std::vector<std::vector<arc_value>> out(static_cast<std::size_t>(c.size()));
    const auto ship = [&](std::size_t r) {
      if (out[r].empty()) return;
      c.async(static_cast<int>(r), dplus_handler{}, handle_, serial::as_wire_span(out[r]));
      out[r].clear();
    };
    for (std::size_t s = 0; s + 1 < st_.offsets.size(); ++s) {
      const auto lo = st_.offsets[s], hi = st_.offsets[s + 1];
      std::uint64_t dplus = 0;
      for (auto i = lo; i < hi; ++i) dplus += st_.out_entry[i] != nullptr ? 1 : 0;
      for (auto i = lo; i < hi; ++i) {
        if (st_.out_entry[i] != nullptr) continue;  // u <+ neighbor: not an in-neighbor
        const int r = st_.dst_owner[i];
        if (r == c.rank()) {
          land_dplus(st_.twin[i], dplus);
          continue;
        }
        auto& b = out[static_cast<std::size_t>(r)];
        b.push_back(arc_value{st_.twin[i], dplus});
        if (b.size() >= kBatch) ship(static_cast<std::size_t>(r));
      }
    }
    for (std::size_t r = 0; r < out.size(); ++r) ship(r);
    c.barrier();
    for_each_arc([&](std::size_t s, std::uint64_t i) {
      if (st_.out_entry[i] != nullptr && (st_.arrived[i] & kDplusArrived) == 0) {
        missing("P6", "P6 d+ flow", s, i);
      }
    });
  }

  /// Runs on the owner of the in-neighbor: the twin arc must have become an
  /// Adjm+ entry in P5, or the two endpoints disagree on the edge's
  /// orientation -- a construction-breaking bug, never silently skipped.
  void land_dplus(std::uint64_t j, std::uint64_t dplus) {
    if (j >= st_.out_entry.size()) out_of_range("P6", j);
    auto* entry = st_.out_entry[j];
    if (entry == nullptr) {
      const auto s = slot_of_arc(j);
      throw std::runtime_error("tripoll: graph_builder P6: d+ of neighbor " +
                               std::to_string(st_.dst[j]) + " arrived at vertex " +
                               std::to_string(st_.verts[s]) +
                               ", whose Adjm+ entry for it never arrived in P5");
    }
    entry->target_out_degree = dplus;
    st_.arrived[j] |= kDplusArrived;
  }

  // --- shared -----------------------------------------------------------------

  template <typename Fn>
  void for_each_arc(Fn&& fn) const {
    for (std::size_t s = 0; s + 1 < st_.offsets.size(); ++s) {
      for (auto i = st_.offsets[s]; i < st_.offsets[s + 1]; ++i) fn(s, i);
    }
  }

  [[nodiscard]] std::size_t slot_of_arc(std::uint64_t i) const {
    const auto it = std::upper_bound(st_.offsets.begin(), st_.offsets.end(), i);
    return static_cast<std::size_t>(it - st_.offsets.begin()) - 1;
  }

  /// Every arc owes one report per phase; a miss means a lost or
  /// mis-routed message and is a construction-breaking bug, so fail loudly.
  [[noreturn]] void missing(const char* phase, const char* flow, std::size_t s,
                            std::uint64_t i) const {
    throw std::runtime_error("tripoll: graph_builder " + std::string(phase) + ": neighbor " +
                             std::to_string(st_.dst[i]) + " of vertex " +
                             std::to_string(st_.verts[s]) + " never arrived in the " + flow);
  }

  [[noreturn]] void out_of_range(const char* phase, std::uint64_t j) const {
    throw std::runtime_error("tripoll: graph_builder " + std::string(phase) +
                             ": report for arc " + std::to_string(j) + " beyond this rank's " +
                             std::to_string(st_.dst.size()) + " arcs");
  }

  // --- handlers -----------------------------------------------------------------

  struct arcs_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h,
                    const serial::wire_span<edge>& arcs, const std::vector<EdgeMeta>& metas) {
      c.resolve(h).land_arcs(arcs, metas);
    }
  };

  struct meta_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h,
                    const serial::wire_span<vertex_id>& ids,
                    const std::vector<VertexMeta>& metas) {
      c.resolve(h).land_meta(ids, metas);
    }
  };

  struct twins_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h, int from,
                    std::uint64_t first, const serial::wire_span<arc_value>& twins) {
      c.resolve(h).land_twins(from, first, twins);
    }
  };

  struct ninfo_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h,
                    const serial::wire_span<arc_value>& info,
                    const std::vector<VertexMeta>& metas) {
      self& b = c.resolve(h);
      check_columns(info.size(), metas, "P4");
      for (std::size_t k = 0; k < info.size(); ++k) {
        const arc_value e = info[k];
        b.land_ninfo(e.arc, e.value, meta_at(metas, k));
      }
    }
  };

  struct dplus_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h,
                    const serial::wire_span<arc_value>& reports) {
      self& b = c.resolve(h);
      for (const arc_value e : reports) b.land_dplus(e.arc, e.value);
    }
  };

  comm::communicator* comm_;
  ordering_policy ordering_ = ordering_policy::degree;
  std::vector<batch<edge, EdgeMeta>> arcs_out_;
  std::vector<batch<vertex_id, VertexMeta>> meta_out_;
  staging st_;
  comm::dist_handle<self> handle_;
  degeneracy_stats peel_stats_{};
  std::uint64_t dropped_self_loops_ = 0;
};

}  // namespace tripoll::graph
