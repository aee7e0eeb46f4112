// Differential test of graph construction: every record the distributed
// builder produces -- degree, order rank, vertex meta and each Adjm+ entry
// (target, rank, d+, edge meta, target meta) -- plus the peel summary and
// the self-loop counters are compared against a serial reference builder
// (a std::map build and a serial wave peel with the same one-fold-per-wave
// rule) over seeded ER, R-MAT and temporal inputs with repeats, self-loops,
// duplicates carrying differing metadata and metadata-only vertices.  A
// failure names its seed, input, rank count, ordering and configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/temporal.hpp"
#include "graph/builder.hpp"
#include "graph/directed.hpp"
#include "graph/dodgr.hpp"
#include "graph/ordering.hpp"
#include "serial/hash.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
using tg::ordering_policy;
using tg::vertex_id;

namespace {

// --- inputs -------------------------------------------------------------------

enum class graph_kind { er, rmat, temporal };

const char* kind_name(graph_kind k) {
  switch (k) {
    case graph_kind::er: return "er";
    case graph_kind::rmat: return "rmat";
    case graph_kind::temporal: return "temporal";
  }
  return "?";
}

struct edge_in {
  vertex_id u = 0;
  vertex_id v = 0;
  std::uint64_t ts = 0;
  int by = 0;  ///< contributing rank
};

struct meta_in {
  vertex_id v = 0;
  std::uint64_t tag = 0;
  int by = 0;
};

/// Contributions in list order; each rank adds its own in that order.
struct input {
  std::vector<edge_in> edges;
  std::vector<meta_in> metas;
};

/// Deterministic stream of pseudo-random words.
struct rng {
  std::uint64_t state;
  std::uint64_t next() {
    return state = tripoll::serial::splitmix64(state + 0x9E3779B97F4A7C15ull);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

input make_input(graph_kind kind, std::uint64_t seed, int nranks) {
  rng r{seed};
  std::vector<std::pair<std::pair<vertex_id, vertex_id>, std::uint64_t>> base;
  switch (kind) {
    case graph_kind::er: {
      const tripoll::gen::erdos_renyi_generator g(48, 240, seed);
      for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
        const auto e = g.edge_at(k);
        base.push_back({{e.u, e.v}, r.below(1000)});
      }
      break;
    }
    case graph_kind::rmat: {
      tripoll::gen::rmat_params p;
      p.scale = 7;
      p.edge_factor = 4;
      p.seed = seed;
      const tripoll::gen::rmat_generator g(p);
      for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
        const auto e = g.edge_at(k);
        base.push_back({{e.u, e.v}, r.below(1000)});
      }
      break;
    }
    case graph_kind::temporal: {
      tripoll::gen::temporal_params p;
      p.scale = 7;
      p.edge_factor = 4;
      p.seed = seed;
      const tripoll::gen::temporal_generator g(p);
      for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
        const auto e = g.edge_at(k);
        base.push_back({{e.u, e.v}, e.timestamp});
      }
      break;
    }
  }

  input in;
  const auto by = [&] { return static_cast<int>(r.below(static_cast<std::uint64_t>(nranks))); };
  for (const auto& [uv, ts] : base) {
    in.edges.push_back({uv.first, uv.second, ts, by()});
    // Repeats with differing metadata, half of them reversed.
    if (r.below(5) == 0) {
      const bool flip = r.below(2) == 0;
      in.edges.push_back({flip ? uv.second : uv.first, flip ? uv.first : uv.second,
                          ts + 1 + r.below(500), by()});
    }
  }
  std::vector<vertex_id> ids;
  for (const auto& [uv, ts] : base) {
    ids.push_back(uv.first);
    ids.push_back(uv.second);
  }
  for (int k = 0; k < 12; ++k) {
    const vertex_id v = ids[r.below(ids.size())];
    in.edges.push_back({v, v, r.below(1000), by()});  // self-loop
  }
  // Vertex metadata: every vertex's contributions come from one rank (so
  // "last to arrive wins" is deterministic), some vertices twice, plus
  // metadata-only isolated vertices outside the generated id range.
  const auto meta_rank = [&](vertex_id v) {
    return static_cast<int>(tripoll::serial::splitmix64(v ^ seed) %
                            static_cast<std::uint64_t>(nranks));
  };
  for (std::size_t k = 0; k < ids.size(); k += 3) {
    const vertex_id v = ids[k];
    in.metas.push_back({v, r.below(1000), meta_rank(v)});
  }
  for (int k = 0; k < 6; ++k) {
    const vertex_id v = (vertex_id{1} << 40) + static_cast<vertex_id>(r.below(64));
    in.metas.push_back({v, r.below(1000), meta_rank(v)});
  }
  for (std::size_t k = 0; k < ids.size(); k += 7) {
    const vertex_id v = ids[k];
    in.metas.push_back({v, 1000 + r.below(1000), meta_rank(v)});  // overrides
  }
  return in;
}

// --- builder configurations ----------------------------------------------------

template <typename T>
std::string show(const T& v) {
  std::ostringstream os;
  if constexpr (std::is_same_v<T, tg::none>) {
    os << "none";
  } else if constexpr (std::is_same_v<T, tg::directed_meta<std::uint64_t>>) {
    os << "{" << v.meta << ",flags " << static_cast<int>(v.flags) << "}";
  } else {
    os << v;
  }
  return os.str();
}

/// Metadata-free: the cold-rmat configuration (keep_existing is exact here).
struct plain_cfg {
  static constexpr const char* name = "none/none";
  using vmeta = tg::none;
  using emeta = tg::none;
  using merge = tg::merge::keep_existing;
  using builder = tg::graph_builder<vmeta, emeta>;
  static vmeta make_vmeta(vertex_id, std::uint64_t) { return {}; }
  static emeta make_emeta(const edge_in&) { return {}; }
  static void add(builder& b, const edge_in& e) { b.add_edge(e.u, e.v); }
};

/// Timestamps merged to the earliest, string vertex metadata.
struct least_cfg {
  static constexpr const char* name = "string/u64 keep_least";
  using vmeta = std::string;
  using emeta = std::uint64_t;
  using merge = tg::merge::keep_least;
  using builder = tg::graph_builder<vmeta, emeta, merge>;
  static vmeta make_vmeta(vertex_id v, std::uint64_t tag) {
    return "vertex-" + std::to_string(v) + "-" + std::to_string(tag);
  }
  static emeta make_emeta(const edge_in& e) { return e.ts; }
  static void add(builder& b, const edge_in& e) { b.add_edge(e.u, e.v, e.ts); }
};

struct greatest_cfg {
  static constexpr const char* name = "none/u64 keep_greatest";
  using vmeta = tg::none;
  using emeta = std::uint64_t;
  using merge = tg::merge::keep_greatest;
  using builder = tg::graph_builder<vmeta, emeta, merge>;
  static vmeta make_vmeta(vertex_id, std::uint64_t) { return {}; }
  static emeta make_emeta(const edge_in& e) { return e.ts; }
  static void add(builder& b, const edge_in& e) { b.add_edge(e.u, e.v, e.ts); }
};

/// Directed input: direction bits or-merged, timestamps keep_least.
struct directed_cfg {
  static constexpr const char* name = "directed u32/u64 keep_least";
  using vmeta = std::uint32_t;
  using emeta = tg::directed_meta<std::uint64_t>;
  using merge = tg::merge::directed<tg::merge::keep_least>;
  using builder = tg::directed_graph_builder<vmeta, std::uint64_t, tg::merge::keep_least>;
  static vmeta make_vmeta(vertex_id v, std::uint64_t tag) {
    return static_cast<std::uint32_t>(v * 31 + tag);
  }
  static emeta make_emeta(const edge_in& e) {
    emeta m;
    m.meta = e.ts;
    m.flags = e.u < e.v ? 1 : 2;
    return m;
  }
  static void add(builder& b, const edge_in& e) { b.add_directed_edge(e.u, e.v, e.ts); }
};

/// Ordering is a builder constructor argument except for the directed
/// builder, which always orders by degree.
template <typename Cfg>
typename Cfg::builder make_builder(tc::communicator& c, ordering_policy o) {
  if constexpr (std::is_same_v<Cfg, directed_cfg>) {
    (void)o;
    return typename Cfg::builder(c);
  } else {
    return typename Cfg::builder(c, o);
  }
}

template <typename Cfg>
constexpr bool supports_ordering(ordering_policy o) {
  return !std::is_same_v<Cfg, directed_cfg> || o == ordering_policy::degree;
}

// --- serial reference -------------------------------------------------------------

template <typename Cfg>
struct reference {
  using entry = tg::adj_entry<typename Cfg::vmeta, typename Cfg::emeta>;
  struct record {
    std::uint64_t degree = 0;
    std::uint64_t order_rank = 0;
    typename Cfg::vmeta meta{};
    std::vector<entry> adj;
  };
  std::map<vertex_id, record> records;
  tg::degeneracy_stats peel{};
  std::vector<std::uint64_t> self_loops;  ///< per contributing rank
};

/// Serial k-core peel, written independently of the distributed one: at
/// each level remove every alive vertex whose remaining degree is <= level,
/// all at once, then fold the wave's decrements; a wave that removes nothing
/// ends the level and is not counted.
tg::degeneracy_stats serial_peel(const std::map<vertex_id, std::vector<vertex_id>>& nbrs,
                                 std::map<vertex_id, std::uint64_t>& wave_of) {
  std::map<vertex_id, std::uint64_t> remaining;
  for (const auto& [v, ns] : nbrs) remaining[v] = ns.size();
  std::vector<vertex_id> alive;
  for (const auto& [v, d] : remaining) alive.push_back(v);
  tg::degeneracy_stats stats;
  stats.vertices = alive.size();
  std::uint64_t wave = 0, level = 0;
  while (!alive.empty()) {
    std::uint64_t m = std::numeric_limits<std::uint64_t>::max();
    for (const vertex_id v : alive) m = std::min(m, remaining[v]);
    level = std::max(level, m);
    stats.degeneracy = std::max(stats.degeneracy, level);
    while (!alive.empty()) {
      std::vector<vertex_id> now, kept;
      for (const vertex_id v : alive) (remaining[v] <= level ? now : kept).push_back(v);
      if (now.empty()) break;
      for (const vertex_id v : now) wave_of[v] = wave;
      alive = kept;
      for (const vertex_id v : now) {
        for (const vertex_id u : nbrs.at(v)) {
          if (wave_of.count(u) == 0) --remaining[u];
        }
      }
      ++wave;
    }
  }
  stats.waves = wave;
  return stats;
}

template <typename Cfg>
reference<Cfg> build_reference(const input& in, int nranks, ordering_policy ordering) {
  reference<Cfg> ref;
  ref.self_loops.assign(static_cast<std::size_t>(nranks), 0);
  std::map<std::pair<vertex_id, vertex_id>, typename Cfg::emeta> edges;
  for (const auto& e : in.edges) {
    if (e.u == e.v) {
      ++ref.self_loops[static_cast<std::size_t>(e.by)];
      continue;
    }
    const auto key = std::minmax(e.u, e.v);
    const auto em = Cfg::make_emeta(e);
    const auto [it, fresh] = edges.try_emplace({key.first, key.second}, em);
    if (!fresh) typename Cfg::merge{}(it->second, em);
  }
  std::map<vertex_id, std::vector<vertex_id>> nbrs;
  std::map<vertex_id, typename Cfg::vmeta> meta;
  for (const auto& [key, em] : edges) {
    nbrs[key.first].push_back(key.second);
    nbrs[key.second].push_back(key.first);
  }
  for (const auto& m : in.metas) {
    nbrs.try_emplace(m.v);
    meta[m.v] = Cfg::make_vmeta(m.v, m.tag);  // list order: the last one wins
  }

  std::map<vertex_id, std::uint64_t> rank;
  if (ordering == ordering_policy::degeneracy) {
    ref.peel = serial_peel(nbrs, rank);
  } else {
    for (const auto& [v, ns] : nbrs) rank[v] = ns.size();
  }
  const auto out = [&](vertex_id v, vertex_id u) {
    return tg::order_less(v, rank.at(v), u, rank.at(u));
  };
  std::map<vertex_id, std::uint64_t> dplus;
  for (const auto& [v, ns] : nbrs) {
    dplus[v] = static_cast<std::uint64_t>(
        std::count_if(ns.begin(), ns.end(), [&](vertex_id u) { return out(v, u); }));
  }
  for (const auto& [v, ns] : nbrs) {
    auto& rec = ref.records[v];
    rec.degree = ns.size();
    rec.order_rank = rank.at(v);
    if (const auto it = meta.find(v); it != meta.end()) rec.meta = it->second;
    for (const vertex_id u : ns) {
      if (!out(v, u)) continue;
      typename reference<Cfg>::entry e;
      e.target = u;
      e.target_rank = rank.at(u);
      e.target_out_degree = dplus.at(u);
      e.edge_meta = edges.at({std::min(u, v), std::max(u, v)});
      if (const auto it = meta.find(u); it != meta.end()) e.target_meta = it->second;
      rec.adj.push_back(e);
    }
    std::sort(rec.adj.begin(), rec.adj.end(),
              [](const auto& a, const auto& b) { return a.key() < b.key(); });
  }
  return ref;
}

// --- comparison -------------------------------------------------------------------

struct mismatch {
  std::ostringstream os;
  bool any = false;
  template <typename A, typename B>
  void check(bool same, const std::string& what, const A& want, const B& got) {
    if (same || any) return;
    any = true;
    os << what << ": expected " << show(want) << ", built " << show(got);
  }
};

/// This rank's records against the reference; returns "" when identical.
template <typename Cfg, typename Graph, typename Builder>
std::string compare_rank(tc::communicator& c, Graph& g, const Builder& b,
                         const reference<Cfg>& ref, ordering_policy ordering) {
  mismatch m;
  std::uint64_t owned = 0;
  for (const auto& [v, rec] : ref.records) owned += g.owner(v) == c.rank() ? 1 : 0;
  m.check(g.local_num_vertices() == owned, "local vertex count", owned,
          g.local_num_vertices());
  m.check(b.local_dropped_self_loops() == ref.self_loops[static_cast<std::size_t>(c.rank())],
          "local_dropped_self_loops", ref.self_loops[static_cast<std::size_t>(c.rank())],
          b.local_dropped_self_loops());
  if constexpr (!std::is_same_v<Cfg, directed_cfg>) {
    const auto& ps = b.peel_stats();
    const auto want = ordering == ordering_policy::degeneracy ? ref.peel : tg::degeneracy_stats{};
    m.check(ps.degeneracy == want.degeneracy, "peel_stats.degeneracy", want.degeneracy,
            ps.degeneracy);
    m.check(ps.waves == want.waves, "peel_stats.waves", want.waves, ps.waves);
    m.check(ps.vertices == want.vertices, "peel_stats.vertices", want.vertices, ps.vertices);
  }
  g.for_all_local([&](const vertex_id& v, const auto& rec) {
    const auto it = ref.records.find(v);
    const std::string at = "vertex " + std::to_string(v);
    m.check(it != ref.records.end(), at + " exists", true, false);
    if (it == ref.records.end()) return;
    const auto& want = it->second;
    m.check(rec.degree == want.degree, at + " degree", want.degree, rec.degree);
    m.check(rec.order_rank == want.order_rank, at + " order_rank", want.order_rank,
            rec.order_rank);
    m.check(rec.meta == want.meta, at + " meta", want.meta, rec.meta);
    m.check(rec.adj.size() == want.adj.size(), at + " out-degree", want.adj.size(),
            rec.adj.size());
    for (std::size_t k = 0; k < std::min(rec.adj.size(), want.adj.size()); ++k) {
      const auto& e = rec.adj[k];
      const auto& w = want.adj[k];
      const std::string slot = at + " adj[" + std::to_string(k) + "]";
      m.check(e.target == w.target, slot + " target", w.target, e.target);
      m.check(e.target_rank == w.target_rank, slot + " target_rank", w.target_rank,
              e.target_rank);
      m.check(e.target_out_degree == w.target_out_degree, slot + " target_out_degree",
              w.target_out_degree, e.target_out_degree);
      m.check(e.edge_meta == w.edge_meta, slot + " edge_meta", w.edge_meta, e.edge_meta);
      m.check(e.target_meta == w.target_meta, slot + " target_meta", w.target_meta,
              e.target_meta);
    }
  });
  return m.os.str();
}

struct scenario {
  graph_kind kind;
  std::uint64_t seed;
  int nranks;
  ordering_policy ordering;

  [[nodiscard]] std::string label(const char* cfg) const {
    return std::string("seed ") + std::to_string(seed) + " graph " + kind_name(kind) +
           " ranks " + std::to_string(nranks) + " ordering " + tg::ordering_name(ordering) +
           " config " + cfg;
  }
};

/// Rank body: build from this rank's share of the input and throw on the
/// first difference from the reference (exceptions, unlike gtest
/// assertions, also surface from forked socket-backend ranks).
template <typename Cfg>
void build_and_compare(tc::communicator& c, const scenario& sc, const input& in,
                       const reference<Cfg>& ref) {
  tg::dodgr<typename Cfg::vmeta, typename Cfg::emeta> g(c);
  auto b = make_builder<Cfg>(c, sc.ordering);
  for (const auto& e : in.edges) {
    if (e.by == c.rank()) Cfg::add(b, e);
  }
  for (const auto& m : in.metas) {
    if (m.by == c.rank()) b.add_vertex_meta(m.v, Cfg::make_vmeta(m.v, m.tag));
  }
  b.build_into(g);
  const std::string diff = compare_rank<Cfg>(c, g, b, ref, sc.ordering);
  if (!diff.empty()) {
    throw std::runtime_error(sc.label(Cfg::name) + ", rank " + std::to_string(c.rank()) +
                             ": " + diff);
  }
}

template <typename Cfg>
void check_inproc(const scenario& sc) {
  if (!supports_ordering<Cfg>(sc.ordering)) return;
  const input in = make_input(sc.kind, sc.seed, sc.nranks);
  const auto ref = build_reference<Cfg>(in, sc.nranks, sc.ordering);
  try {
    (void)tc::runtime::run(sc.nranks,
                           [&](tc::communicator& c) { build_and_compare<Cfg>(c, sc, in, ref); });
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
}

template <typename Cfg>
void check_socket(const scenario& sc) {
  if (!supports_ordering<Cfg>(sc.ordering)) return;
  const input in = make_input(sc.kind, sc.seed, sc.nranks);
  const auto ref = build_reference<Cfg>(in, sc.nranks, sc.ordering);
  // A failing rank prints its difference (with the seed) to stderr.
  EXPECT_NO_THROW(tc::runtime::run_socket_local(
      sc.nranks, [&](tc::communicator& c) { build_and_compare<Cfg>(c, sc, in, ref); }))
      << sc.label(Cfg::name);
}

}  // namespace

// --- the reference itself -----------------------------------------------------------

TEST(SerialReference, PeelsKnownGraphs) {
  // K4 plus a pendant path: the path peels at level 1, K4 at level 3.
  std::map<vertex_id, std::vector<vertex_id>> nbrs = {
      {0, {1, 2, 3}}, {1, {0, 2, 3}}, {2, {0, 1, 3}}, {3, {0, 1, 2, 4}}, {4, {3, 5}}, {5, {4}}};
  std::map<vertex_id, std::uint64_t> wave;
  const auto stats = serial_peel(nbrs, wave);
  EXPECT_EQ(stats.degeneracy, 3u);
  EXPECT_EQ(stats.vertices, 6u);
  EXPECT_EQ(wave.at(5), 0u);
  EXPECT_EQ(wave.at(4), 1u);
  EXPECT_EQ(wave.at(0), wave.at(3));
  EXPECT_EQ(stats.waves, 3u);
}

// --- inproc sweep: ranks 1-5 x orderings x inputs x configurations ---------------------

class BuilderDifferential
    : public ::testing::TestWithParam<std::tuple<graph_kind, int, ordering_policy>> {};

TEST_P(BuilderDifferential, RecordsMatchSerialReference) {
  const auto [kind, nranks, ordering] = GetParam();
  for (const std::uint64_t seed : {11u, 12u}) {
    const scenario sc{kind, seed, nranks, ordering};
    check_inproc<plain_cfg>(sc);
    check_inproc<least_cfg>(sc);
    check_inproc<greatest_cfg>(sc);
    check_inproc<directed_cfg>(sc);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuilderDifferential,
    ::testing::Combine(::testing::Values(graph_kind::er, graph_kind::rmat,
                                         graph_kind::temporal),
                       ::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(ordering_policy::degree,
                                         ordering_policy::degeneracy)),
    [](const auto& info) {
      return std::string(kind_name(std::get<0>(info.param))) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             tg::ordering_name(std::get<2>(info.param));
    });

// --- socket backend: 3 forked ranks, bulk payloads over real frames ------------------

TEST(BuilderDifferentialSocket, ThreeForkedRanksMatchSerialReference) {
  for (const graph_kind kind : {graph_kind::rmat, graph_kind::temporal}) {
    for (const ordering_policy ordering :
         {ordering_policy::degree, ordering_policy::degeneracy}) {
      const scenario sc{kind, 13, 3, ordering};
      check_socket<plain_cfg>(sc);
      check_socket<least_cfg>(sc);
      check_socket<greatest_cfg>(sc);
      check_socket<directed_cfg>(sc);
    }
  }
}

// --- failure paths ------------------------------------------------------------------

TEST(BuilderDifferential, EmptyBuildHasNoVerticesAndNoWaves) {
  (void)tc::runtime::run(3, [](tc::communicator& c) {
    tg::dodgr<tg::none, tg::none> g(c);
    tg::graph_builder<tg::none, tg::none> b(c, ordering_policy::degeneracy);
    b.build_into(g);
    EXPECT_EQ(g.census().num_vertices, 0u);
    EXPECT_EQ(b.peel_stats().waves, 0u);
    EXPECT_EQ(b.peel_stats().vertices, 0u);
  });
}
