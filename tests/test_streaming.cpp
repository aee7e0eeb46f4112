// Tests for the streaming overlay (graph/overlay.hpp): base+delta surveys
// bit-identical to a full rebuild at every batch boundary, repeated-edge
// dedup (in-batch and against the stored graph), out-of-order timestamps,
// window boundary semantics, sliding-window expiry, and incremental
// re-freeze compaction (rank reuse + v3 snapshot round-trip).
//
// The socket-backend axis of the identity matrix is exercised end-to-end by
// tests/socket_smoke.sh, which diffs the CLI `ingest` output across the
// inproc and socket backends; here every run uses the inproc runtime.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/overlay.hpp"
#include "graph/snapshot.hpp"
#include "serial/hash.hpp"

namespace cb = tripoll::callbacks;
namespace tc = tripoll::comm;
namespace tg = tripoll::graph;

namespace {

using edge_pair = std::pair<tg::vertex_id, tg::vertex_id>;

std::uint64_t edge_ts(tg::vertex_id u, tg::vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 1000000;
}

std::uint64_t vertex_label(tg::vertex_id v) {
  return tripoll::serial::splitmix64(v ^ 0x5EED) % 64;
}

/// Deterministic simple edge set (normalized, self-loop-free, deduplicated)
/// so that base/delta splits consist of genuinely-new edges.
std::vector<edge_pair> er_edges(std::uint64_t nv, std::uint64_t ne, std::uint64_t seed) {
  tripoll::gen::erdos_renyi_generator er(nv, ne, seed);
  std::vector<edge_pair> out;
  std::set<edge_pair> seen;
  for (std::uint64_t k = 0; k < er.num_edges(); ++k) {
    const auto e = er.edge_at(k);
    const auto lo = std::min(e.u, e.v);
    const auto hi = std::max(e.u, e.v);
    if (lo == hi) continue;
    if (!seen.insert({lo, hi}).second) continue;
    out.push_back({lo, hi});
  }
  return out;
}

/// Build + freeze the given edge set (each rank contributes a stripe) with
/// the deterministic plan metadata -- the full-rebuild reference.
tg::frozen_dodgr<std::uint64_t, std::uint64_t> freeze_edges(
    tc::communicator& c, const std::vector<edge_pair>& edges,
    tg::ordering_policy ord) {
  tg::graph_builder<std::uint64_t, std::uint64_t> builder(c, ord);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(c.size())) != c.rank()) continue;
    builder.add_edge(edges[i].first, edges[i].second,
                     edge_ts(edges[i].first, edges[i].second));
  }
  tg::dodgr<std::uint64_t, std::uint64_t> g(c);
  builder.build_into(g);
  g.for_all_local([](const tg::vertex_id& v, auto& rec) {
    rec.meta = vertex_label(v);
    for (auto& e : rec.adj) e.target_meta = vertex_label(e.target);
  });
  return tg::freeze(g);
}

struct metrics {
  std::uint64_t triangles = 0;
  std::uint64_t volume = 0;
  std::uint64_t messages = 0;
};

template <typename Graph>
metrics survey_metrics(tc::communicator& c, Graph& g, int threads = 1) {
  cb::count_context ctx;
  const auto r = cb::plan_for(g, cb::count_callback{}, ctx)
                     .run({tripoll::survey_mode::push_pull, threads})
                     .slice(0);
  return {ctx.global_count(c), r.total.volume_bytes, r.total.messages};
}

template <typename Graph>
std::uint64_t windowed_count(tc::communicator& c, Graph& g, std::uint64_t t0,
                             std::uint64_t t1, int threads = 0) {
  cb::count_context ctx;
  (void)cb::plan_for(g, cb::count_callback{}, ctx)
      .window(t0, t1)
      .run({tripoll::survey_mode::push_pull, threads});
  return ctx.global_count(c);
}

std::string fresh_prefix(const char* tag) {
  return std::string("/tmp/tripoll-streaming-") + tag + "-" +
         std::to_string(::getpid());
}

}  // namespace

// --- base+delta bit-identity matrix ------------------------------------------

// Batch sizes x orderings x rank counts; at every batch boundary the overlay
// survey must report the same global triangle count as a full rebuild of
// base+delta -- and the same volume/messages under degree ordering, where
// the overlay's recomputed ranks coincide with the rebuild's.  (Degeneracy
// ranks are sticky by design -- a re-peel is a full-graph pass -- so the
// orientations may differ while the triangle count cannot; the
// overlay-vs-compaction metric identity for degeneracy is covered below.)
// The overlay and the rebuild are each surveyed at 1 and 4 threads, plus one
// windowed overlay count at 4 threads: results are thread-invariant.
TEST(StreamingOverlay, BaseDeltaBitIdentityMatrix) {
  const auto edges = er_edges(100, 600, 777);
  ASSERT_GT(edges.size(), 50u);
  const std::size_t base_n = edges.size() * 3 / 5;
  const std::size_t batch_sizes[] = {1, 9, 0};  // 0 = everything left

  for (const auto ord :
       {tg::ordering_policy::degree, tg::ordering_policy::degeneracy}) {
    for (const int ranks : {1, 3}) {
      tc::runtime::run(ranks, [&](tc::communicator& c) {
        std::vector<edge_pair> applied(edges.begin(),
                                       edges.begin() + static_cast<std::ptrdiff_t>(base_n));
        auto base = freeze_edges(c, applied, ord);
        tg::overlay ov(base);

        std::size_t next = base_n;
        for (const std::size_t bs : batch_sizes) {
          const std::size_t take =
              bs == 0 ? edges.size() - next : std::min(bs, edges.size() - next);
          ASSERT_GT(take, 0u);
          // Each rank contributes its stripe of the batch (the CLI's
          // read_edge_list slicing does the same); ingest routes to owners.
          tg::overlay<std::uint64_t, std::uint64_t>::edge_batch batch;
          for (std::size_t i = next; i < next + take; ++i) {
            if (static_cast<int>(i % static_cast<std::size_t>(c.size())) != c.rank()) {
              continue;
            }
            batch.push_back({edges[i].first, edges[i].second,
                             edge_ts(edges[i].first, edges[i].second)});
          }
          const auto st =
              ov.ingest(batch, [](tg::vertex_id v) { return vertex_label(v); });
          EXPECT_EQ(st.accepted, take);
          EXPECT_EQ(st.duplicate_batch + st.duplicate_base + st.self_loops, 0u);
          applied.insert(applied.end(),
                         edges.begin() + static_cast<std::ptrdiff_t>(next),
                         edges.begin() + static_cast<std::ptrdiff_t>(next + take));
          next += take;

          const auto om = survey_metrics(c, ov);
          const auto om4 = survey_metrics(c, ov, 4);
          auto rebuilt = freeze_edges(c, applied, ord);
          const auto m1 = survey_metrics(c, rebuilt, 1);
          const auto m4 = survey_metrics(c, rebuilt, 4);

          EXPECT_EQ(om4.triangles, om.triangles);
          EXPECT_EQ(om4.volume, om.volume);
          EXPECT_EQ(om4.messages, om.messages);
          const std::uint64_t w1 = windowed_count(c, ov, 0, 500000, 1);
          EXPECT_GT(w1, 0u);
          EXPECT_EQ(windowed_count(c, ov, 0, 500000, 4), w1);
          EXPECT_EQ(windowed_count(c, rebuilt, 0, 500000, 1), w1);

          EXPECT_EQ(om.triangles, m1.triangles)
              << "ord " << static_cast<int>(ord) << " ranks " << ranks
              << " boundary " << next;
          EXPECT_EQ(m4.triangles, m1.triangles);
          EXPECT_EQ(m4.volume, m1.volume);
          EXPECT_EQ(m4.messages, m1.messages);
          if (ord == tg::ordering_policy::degree) {
            EXPECT_EQ(om.volume, m1.volume);
            EXPECT_EQ(om.messages, m1.messages);
          }
        }
        EXPECT_EQ(next, edges.size());
        EXPECT_EQ(ov.batches_applied(), 3u);
      });
    }
  }
}

// --- dedup + out-of-order timestamps -----------------------------------------

TEST(StreamingOverlay, RepeatedEdgesDedupAndOutOfOrderTimestamps) {
  tc::runtime::run(2, [&](tc::communicator& c) {
    // Base path 1-2-3 with small explicit timestamps.
    tg::graph_builder<std::uint64_t, std::uint64_t> builder(c);
    if (c.rank0()) {
      builder.add_edge(1, 2, 10);
      builder.add_edge(2, 3, 11);
    }
    tg::dodgr<std::uint64_t, std::uint64_t> g(c);
    builder.build_into(g);
    auto base = tg::freeze(g);
    tg::overlay ov(base);

    // One genuinely-new edge (1,3) repeated out of order, a self-loop, and
    // an edge the base already stores.  Contributed by rank 0 only (stats
    // are global, so every rank sees the same outcome).
    tg::overlay<std::uint64_t, std::uint64_t>::edge_batch batch;
    if (c.rank0()) {
      batch = {
          {1, 3, 50}, {3, 1, 20}, {1, 3, 80},  // keep-least merges to ts 20
          {2, 2, 9},                           // self-loop: dropped
          {3, 2, 5},                           // stored edge wins: dropped
      };
    }
    const auto st = ov.ingest(batch);
    EXPECT_EQ(st.submitted, 5u);
    EXPECT_EQ(st.accepted, 1u);
    EXPECT_EQ(st.duplicate_batch, 2u);
    EXPECT_EQ(st.duplicate_base, 1u);
    EXPECT_EQ(st.self_loops, 1u);
    EXPECT_EQ(st.new_vertices, 0u);

    // The merged timestamp must be the LEAST (20): triangle edges are now
    // {10, 11, 20}, observable through half-open window counts.
    EXPECT_EQ(survey_metrics(c, ov).triangles, 1u);
    EXPECT_EQ(windowed_count(c, ov, 10, 21), 1u);
    EXPECT_EQ(windowed_count(c, ov, 10, 20), 0u);  // t1 exclusive: ts 20 out
    EXPECT_EQ(windowed_count(c, ov, 10, 51), 1u);  // 50/80 copies are gone
    EXPECT_EQ(windowed_count(c, ov, 20, 81), 0u);  // base edges filtered out

    // A later batch re-submitting a stored edge never overwrites it.
    tg::overlay<std::uint64_t, std::uint64_t>::edge_batch rebatch;
    if (c.rank0()) rebatch = {{1, 3, 7}};
    const auto st2 = ov.ingest(rebatch);
    EXPECT_EQ(st2.accepted, 0u);
    EXPECT_EQ(st2.duplicate_base, 1u);
    EXPECT_EQ(windowed_count(c, ov, 10, 21), 1u);  // still ts 20
    EXPECT_EQ(windowed_count(c, ov, 7, 12), 0u);   // ts 7 was NOT adopted
  });
}

// --- window boundaries + expiry ----------------------------------------------

TEST(StreamingOverlay, WindowBoundariesAndSlidingExpiry) {
  tc::runtime::run(2, [&](tc::communicator& c) {
    // Two disjoint triangles with known timestamps: {10,20,30} and
    // {100,110,120}.
    tg::graph_builder<std::uint64_t, std::uint64_t> builder(c);
    if (c.rank0()) {
      builder.add_edge(1, 2, 10);
      builder.add_edge(2, 3, 20);
      builder.add_edge(1, 3, 30);
      builder.add_edge(4, 5, 100);
      builder.add_edge(5, 6, 110);
      builder.add_edge(4, 6, 120);
    }
    tg::dodgr<std::uint64_t, std::uint64_t> g(c);
    builder.build_into(g);
    auto base = tg::freeze(g);
    tg::overlay ov(base);

    EXPECT_EQ(survey_metrics(c, ov).triangles, 2u);
    // Half-open [t0, t1): all three edges must be admitted.
    EXPECT_EQ(windowed_count(c, ov, 10, 31), 1u);
    EXPECT_EQ(windowed_count(c, ov, 10, 30), 0u);  // ts 30 excluded at t1
    EXPECT_EQ(windowed_count(c, ov, 11, 31), 0u);  // ts 10 excluded at t0
    EXPECT_EQ(windowed_count(c, ov, 10, 121), 2u);
    EXPECT_EQ(windowed_count(c, ov, 30, 121), 1u);  // only the late triangle
    EXPECT_EQ(windowed_count(c, ov, 0, 0), 0u);     // empty window
    EXPECT_EQ(windowed_count(c, ov, 121, 10), 0u);  // inverted window

    // Slide the window forward: expire everything before t=100.
    const auto st = ov.expire_before(100);
    EXPECT_EQ(st.expired_edges, 3u);
    EXPECT_EQ(survey_metrics(c, ov).triangles, 1u);
    EXPECT_EQ(windowed_count(c, ov, 100, 121), 1u);
    EXPECT_EQ(windowed_count(c, ov, 10, 31), 0u);

    // Expiry composes with ingest: re-adding one aged-out edge does not
    // resurrect the old triangle (its other two edges are gone).
    (void)ov.ingest({{{1, 2, 200}}});
    EXPECT_EQ(survey_metrics(c, ov).triangles, 1u);

    // The expired region compacts away: isolated vertices are dropped.
    auto fz = ov.compact();
    EXPECT_EQ(survey_metrics(c, fz).triangles, 1u);
    EXPECT_EQ(fz.census().num_vertices, 5u);  // 4,5,6 + re-added 1,2
  });
}

// --- compaction: rank reuse + snapshot round trip ----------------------------

TEST(StreamingOverlay, CompactionIdentityAndSnapshotRoundTrip) {
  const auto edges = er_edges(80, 400, 1234);
  const std::size_t base_n = edges.size() * 7 / 10;

  for (const auto ord :
       {tg::ordering_policy::degree, tg::ordering_policy::degeneracy}) {
    tc::runtime::run(3, [&](tc::communicator& c) {
      std::vector<edge_pair> applied(edges.begin(),
                                     edges.begin() + static_cast<std::ptrdiff_t>(base_n));
      auto base = freeze_edges(c, applied, ord);
      tg::overlay ov(base);

      // Two delta batches, then compact.
      const std::size_t mid = base_n + (edges.size() - base_n) / 2;
      for (const auto& [from, to] :
           {std::pair<std::size_t, std::size_t>{base_n, mid}, {mid, edges.size()}}) {
        tg::overlay<std::uint64_t, std::uint64_t>::edge_batch batch;
        for (std::size_t i = from; i < to; ++i) {
          batch.push_back({edges[i].first, edges[i].second,
                           edge_ts(edges[i].first, edges[i].second)});
        }
        (void)ov.ingest(batch, [](tg::vertex_id v) { return vertex_label(v); });
      }
      const auto om = survey_metrics(c, ov);

      auto fz = ov.compact();
      EXPECT_EQ(fz.ordering(), ord);  // ranks reused, ordering tag preserved
      const auto fm = survey_metrics(c, fz);
      // Compaction preserves the overlay's orientation exactly -- full
      // metric identity under BOTH ordering policies (sticky ranks).
      EXPECT_EQ(fm.triangles, om.triangles);
      EXPECT_EQ(fm.volume, om.volume);
      EXPECT_EQ(fm.messages, om.messages);

      applied.insert(applied.end(),
                     edges.begin() + static_cast<std::ptrdiff_t>(base_n), edges.end());
      auto rebuilt = freeze_edges(c, applied, ord);
      const auto rm = survey_metrics(c, rebuilt);
      EXPECT_EQ(fm.triangles, rm.triangles);
      if (ord == tg::ordering_policy::degree) {
        EXPECT_EQ(fm.volume, rm.volume);
        EXPECT_EQ(fm.messages, rm.messages);
      }

      // v3 snapshot round trip of the compacted graph.
      const std::string prefix =
          fresh_prefix(ord == tg::ordering_policy::degree ? "cmp-deg" : "cmp-dgn");
      (void)tg::save_snapshot(fz, prefix, tg::snapshot_codec::compressed);
      c.barrier();
      {
        auto loaded = tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix);
        EXPECT_EQ(loaded.ordering(), ord);
        EXPECT_EQ(loaded.snapshot_id(), fz.snapshot_id());
        const auto lm = survey_metrics(c, loaded);
        EXPECT_EQ(lm.triangles, fm.triangles);
        EXPECT_EQ(lm.volume, fm.volume);
        EXPECT_EQ(lm.messages, fm.messages);
      }
      c.barrier();
      (void)std::remove(tg::snapshot_rank_path(prefix, c.rank()).c_str());
    });
  }
}

// --- compaction then further ingest ------------------------------------------

TEST(StreamingOverlay, IngestAfterCompactionKeepsIdentity) {
  const auto edges = er_edges(60, 260, 99);
  const std::size_t a = edges.size() / 2;
  const std::size_t b = a + (edges.size() - a) / 2;

  tc::runtime::run(2, [&](tc::communicator& c) {
    std::vector<edge_pair> applied(edges.begin(),
                                   edges.begin() + static_cast<std::ptrdiff_t>(a));
    auto base = freeze_edges(c, applied, tg::ordering_policy::degree);
    tg::overlay ov(base);
    tg::overlay<std::uint64_t, std::uint64_t>::edge_batch batch;
    for (std::size_t i = a; i < b; ++i) {
      batch.push_back({edges[i].first, edges[i].second,
                       edge_ts(edges[i].first, edges[i].second)});
    }
    (void)ov.ingest(batch, [](tg::vertex_id v) { return vertex_label(v); });

    // Compact, overlay the result, ingest the remaining delta: the steady-
    // state streaming loop.
    auto fz = ov.compact();
    tg::overlay ov2(fz);
    batch.clear();
    for (std::size_t i = b; i < edges.size(); ++i) {
      batch.push_back({edges[i].first, edges[i].second,
                       edge_ts(edges[i].first, edges[i].second)});
    }
    (void)ov2.ingest(batch, [](tg::vertex_id v) { return vertex_label(v); });

    applied.assign(edges.begin(), edges.end());
    auto rebuilt = freeze_edges(c, applied, tg::ordering_policy::degree);
    const auto om = survey_metrics(c, ov2);
    const auto rm = survey_metrics(c, rebuilt);
    EXPECT_EQ(om.triangles, rm.triangles);
    EXPECT_EQ(om.volume, rm.volume);
    EXPECT_EQ(om.messages, rm.messages);
  });
}
