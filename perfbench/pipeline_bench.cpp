// pipeline_bench -- end-to-end benchmark of the TriPoll pipeline over three
// workloads, timed as a whole and, in a traced run, layer by layer.
//
//   pipeline_bench prepare --workload W --seed N --dir D [--size tiny]
//   pipeline_bench run     --workload W --seed N --dir D --seconds S
//                          --trace 0|1 [--size tiny] [--corrupt-reference]
//
// `prepare` generates the workload's inputs from `gen::` (edge files,
// snapshots, batch files, reference answers) into D; it is untimed and run
// once per seed.  `run` loads them, measures for about S seconds on the
// inproc backend (2 ranks x 2 threads, plus one 1 rank x 1 thread phase),
// checks every answer against its reference and prints one JSON line:
// every end-to-end metric with --trace 0, every per-layer metric with
// --trace 1.  Workloads, metrics and the layer -> metric table are in
// perfbench/README.md.
//
// Per-layer numbers come only from this file: spans around the harness's
// own calls into each layer's public functions, plus
// communicator::local_stats() deltas around them.  A traced run times
// every other operation with spans on and the rest with spans off; the
// difference is trace.overhead_frac.  Spans are kept in memory and written
// at exit as Chrome trace-event JSON plus a per-layer self-time summary.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "baselines/serial_tc.hpp"
#include "comm/runtime.hpp"
#include "comm/service_client.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/rmat.hpp"
#include "gen/temporal.hpp"
#include "gen/web.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/io.hpp"
#include "graph/overlay.hpp"
#include "graph/snapshot.hpp"
#include "serial/hash.hpp"
#include "service/survey_service.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;
namespace svc = tripoll::service;

namespace {

using clock_type = std::chrono::steady_clock;
using graph::none;
using graph::vertex_id;

constexpr int kRanks = 2;
constexpr int kThreads = 2;
/// Set-ups per run, half before the measured loop and half after it, so a
/// slow stretch of machine time at either end moves only half of them;
/// setup_s is their median.
constexpr int kSetups = 6;
constexpr auto kCodec = graph::snapshot_codec::compressed;

const clock_type::time_point g_epoch = clock_type::now();

double now_s() { return std::chrono::duration<double>(clock_type::now() - g_epoch).count(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- options -----------------------------------------------------------------

struct options {
  std::string mode;
  std::string workload;
  std::string dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_reference = false;
};

/// Input sizes.  `tiny` is the harness self-check size (seconds per run).
/// cold-rmat runs R-MAT scale 15, not 16: a 1.6 s pipeline gives about ten
/// samples per run, which keeps its median steady on a shared 4-core box.
struct sizes {
  std::uint32_t rmat_scale = 15;
  std::uint32_t web_scale = 14;
  std::uint32_t temporal_scale = 15;
  int batches = 100;        ///< stream batches per pass
  int expire_every = 10;    ///< stream: expire_before after every k-th batch
  int window_batches = 10;  ///< stream: windowed answer spans k batches of time

  /// Stream batches timed at 1 rank x 1 thread: two expiry periods, so the
  /// second half runs on an overlay that expire_before has cut.
  [[nodiscard]] int serial_batches() const { return 2 * expire_every; }

  static sizes of(bool tiny) {
    if (!tiny) return {};
    return {.rmat_scale = 10, .web_scale = 9, .temporal_scale = 10, .batches = 20,
            .expire_every = 5, .window_batches = 5};
  }
};

// --- key/value files (prepare -> run hand-off) -------------------------------

using kv = std::map<std::string, std::string>;

void write_kv(const std::string& path, const kv& m) {
  std::ofstream out(path + ".tmp");
  for (const auto& [k, v] : m) out << k << ' ' << v << '\n';
  out.close();
  if (!out || std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

kv read_kv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path + " (run prepare first)");
  kv m;
  std::string k, v;
  while (in >> k >> v) m[k] = v;
  return m;
}

std::uint64_t kv_u64(const kv& m, const std::string& k) {
  const auto it = m.find(k);
  if (it == m.end()) throw std::runtime_error("missing key " + k);
  return std::stoull(it->second);
}

std::uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

std::uint64_t snapshot_bytes(const std::string& prefix, int ranks) {
  std::uint64_t total = 0;
  for (int r = 0; r < ranks; ++r) total += file_bytes(graph::snapshot_rank_path(prefix, r));
  return total;
}

// --- tracing -----------------------------------------------------------------

struct span_record {
  std::string name;  ///< "<layer>:<call>" or "op:<workload op>"
  int id = 0;
  int parent = -1;
  int rank = -1;  ///< -1: harness thread outside any rank
  int tid = 0;
  double start = 0.0;
  double end = 0.0;
  comm::stats_snapshot comm{};  ///< this rank's send counters over the call
};

bool g_trace_mode = false;           ///< --trace 1
thread_local bool t_tracing = false;  ///< spans on for this thread's current op
thread_local int t_parent = -1;
std::atomic<int> g_op_span{-1};  ///< parent of rank threads' top-level spans
std::atomic<int> g_next_span{0};
std::atomic<int> g_next_tid{0};
thread_local int t_tid = g_next_tid.fetch_add(1);
std::mutex g_span_mu;
std::vector<span_record> g_spans;

/// RAII span; records nothing unless tracing is on for this thread.
class span {
 public:
  span(const char* name, int rank) : active_(t_tracing) {
    if (!active_) return;
    rec_.name = name;
    rec_.id = g_next_span.fetch_add(1);
    rec_.parent = t_parent >= 0 ? t_parent : g_op_span.load();
    rec_.rank = rank;
    rec_.tid = t_tid;
    saved_parent_ = t_parent;
    t_parent = rec_.id;
    rec_.start = now_s();
  }
  ~span() {
    if (!active_) return;
    rec_.end = now_s();
    t_parent = saved_parent_;
    const std::lock_guard<std::mutex> lock(g_span_mu);
    g_spans.push_back(std::move(rec_));
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  [[nodiscard]] int id() const noexcept { return active_ ? rec_.id : -1; }
  void set_comm(const comm::stats_snapshot& d) { rec_.comm = d; }

 private:
  bool active_;
  int saved_parent_ = -1;
  span_record rec_;
};

/// One operation of the workload: a root span that rank threads started
/// meanwhile hang off.  `traced` alternates per operation in a traced run.
class op_span {
 public:
  op_span(const char* name, bool traced) {
    t_tracing = traced;
    sp_.emplace(name, -1);
    if (traced) g_op_span.store(sp_->id());
  }
  ~op_span() {
    sp_.reset();
    g_op_span.store(-1);
    t_tracing = false;
  }
  op_span(const op_span&) = delete;
  op_span& operator=(const op_span&) = delete;

 private:
  std::optional<span> sp_;
};

/// Call into a layer: a span named `name` plus this rank's comm deltas.
template <typename F>
decltype(auto) in_layer(comm::communicator& c, const char* name, F&& f) {
  span s(name, c.rank());
  const auto before = t_tracing ? c.local_stats() : comm::stats_snapshot{};
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    if (t_tracing) s.set_comm(c.local_stats() - before);
  } else {
    auto out = f();
    if (t_tracing) s.set_comm(c.local_stats() - before);
    return out;
  }
}

/// Per-layer counters recorded by rank 0 (traced runs only); each metric
/// reports the median of its samples.
std::mutex g_sample_mu;
std::map<std::string, std::vector<double>> g_samples;

void sample(const std::string& key, double value) {
  if (!t_tracing) return;
  const std::lock_guard<std::mutex> lock(g_sample_mu);
  g_samples[key].push_back(value);
}

void sample_survey(const tripoll::survey_result& r, std::uint64_t triangles, bool windowed) {
  sample("survey.dry_run_s", r.dry_run.seconds);
  sample("survey.push_s", r.push.seconds);
  sample("survey.pull_s", r.pull.seconds);
  sample("survey.volume_bytes", static_cast<double>(r.total.volume_bytes));
  sample("survey.messages", static_cast<double>(r.total.messages));
  sample("survey.pulls_granted", static_cast<double>(r.pulls_granted));
  sample("survey.wedge_candidates", static_cast<double>(r.wedge_candidates));
  if (r.wedge_candidates > 0) {
    sample("survey.close_ratio",
           static_cast<double>(triangles) / static_cast<double>(r.wedge_candidates));
  }
  if (r.total.seconds > 0) {
    sample("survey.candidates_per_s",
           static_cast<double>(r.wedge_candidates) / r.total.seconds);
  }
  const auto batches = r.bitmap_batches + r.list_batches;
  if (batches > 0) {
    sample("survey.bitmap_frac",
           static_cast<double>(r.bitmap_batches) / static_cast<double>(batches));
  }
  if (windowed) {
    sample("survey.window_volume_bytes", static_cast<double>(r.total.volume_bytes));
  }
}

/// Whole-world comm counters of one runtime::run (traced runs only).
void sample_world(const comm::stats_snapshot& w) {
  sample("comm.handlers_run", static_cast<double>(w.handlers_run));
  if (w.buffers_sent > 0) {
    sample("comm.bytes_per_buffer", static_cast<double>(w.remote_bytes + w.local_bytes) /
                                        static_cast<double>(w.buffers_sent));
  }
}

/// Collective: sample this world's counters since `start` (every rank's
/// own deltas, summed).
void sample_world(comm::communicator& c, const comm::stats_snapshot& start) {
  const auto d = c.local_stats() - start;
  const auto total = c.all_reduce(d, [](const auto& a, const auto& b) { return a + b; });
  if (c.rank0()) sample_world(total);
}

// --- correctness tally -------------------------------------------------------

std::atomic<std::uint64_t> g_attempted{0};
std::atomic<std::uint64_t> g_failed{0};
bool g_corrupt = false;  ///< --corrupt-reference: every reference is off by one

/// One checked operation: `ok` is whether its answer matched the reference.
void tally(bool ok, const std::string& what) {
  g_attempted.fetch_add(1);
  if (!ok) {
    g_failed.fetch_add(1);
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void expect_eq(std::uint64_t got, std::uint64_t want, const std::string& what) {
  if (g_corrupt) ++want;
  tally(got == want, what + ": got " + std::to_string(got) + " want " + std::to_string(want));
}

/// An operation that threw counts as failed, never dropped.
void phase_failed(const std::string& phase, const std::exception& e) {
  std::fprintf(stderr, "FAILED: %s threw: %s\n", phase.c_str(), e.what());
  g_attempted.fetch_add(1);
  g_failed.fetch_add(1);
}

// --- results -----------------------------------------------------------------

struct results {
  std::vector<double> op_seconds;         ///< latency samples, traced ops excluded
  std::vector<double> traced_op_seconds;  ///< latency samples of traced ops
  std::vector<double> setup_seconds;
  std::vector<double> serial_seconds;
  double items = 0.0;        ///< work items completed in the measured loop
  double loop_seconds = 0.0; ///< wall time of the measured loop
  double peak_rss_mb = 0.0;
  kv env;                    ///< input sizes etc. for the record
};

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Whether a traced run records the spans of operation `index`: a hashed
/// half of the operations (never in step with a workload's own cycles),
/// always including the first.
bool traced_op(std::size_t index) {
  return g_trace_mode && (index == 0 || (tripoll::serial::splitmix64(index) & 1) == 0);
}

void record_op(results& res, std::size_t index, double seconds) {
  (traced_op(index) ? res.traced_op_seconds : res.op_seconds).push_back(seconds);
}

// --- deterministic metadata (same functions as tripoll_cli --meta) -----------

std::uint64_t plan_edge_ts(vertex_id u, vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 1000000;
}

std::uint64_t plan_vertex_label(vertex_id v) {
  return tripoll::serial::splitmix64(v ^ 0x5EED) % 64;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return tripoll::serial::splitmix64(seed * 0x9E3779B97F4A7C15ull + salt);
}

/// Seed reserved for checking later claims (perfbench/README.md).
constexpr std::uint64_t kReservedSeed = 7919;

/// The generator seed a benchmark seed uses: the generator's own fixed
/// seed, except on the reserved seed, which also draws a different graph of
/// the same family and size.
std::uint64_t generator_seed(std::uint64_t fixed, std::uint64_t seed) {
  return seed == kReservedSeed ? derive_seed(seed, 13) : fixed;
}

/// The seed's bijective relabelling of the ids [0, 2^bits): v -> a*v + b
/// (mod 2^bits, a odd).  Every other seed than the reserved one keeps the
/// generator's fixed seed, so it yields the same graph up to isomorphism --
/// the same amount of work -- with different ids, edge-file bytes, rank
/// partition and id-derived metadata.  Spread across seeds then stays close
/// to the machine's own run-to-run spread.
struct relabel {
  std::uint64_t a = 1, b = 0, mask = 0;
  relabel(std::uint64_t seed, std::uint32_t bits)
      : a(derive_seed(seed, 11) | 1), b(derive_seed(seed, 12)), mask((std::uint64_t{1} << bits) - 1) {}
  vertex_id operator()(vertex_id v) const { return (a * v + b) & mask; }
};

// =============================================================================
// cold-rmat: edge file -> read_edge_list -> build_into (degeneracy) -> freeze
// -> compressed save_snapshot -> push_pull count.
// =============================================================================

struct cold_paths {
  std::string edges, snapshot, info;
  explicit cold_paths(const std::string& dir)
      : edges(dir + "/edges.txt"), snapshot(dir + "/setup"), info(dir + "/info.txt") {}
};

/// One cold pipeline on `ranks` x `threads`; returns the global count.
std::uint64_t cold_pipeline(const std::string& edges, const std::string& out_prefix,
                            int ranks, int threads, double mb) {
  std::uint64_t triangles = 0;
  const auto run_stats = comm::runtime::run(ranks, [&](comm::communicator& c) {
    t_tracing = g_trace_mode && g_op_span.load() >= 0;
    graph::graph_builder<none, none> builder(c, graph::ordering_policy::degeneracy);
    graph::ingest_options in;
    in.threads = threads;
    in_layer(c, "graph.io:read_edge_list", [&] {
      return graph::read_edge_list(
          c, edges, [&](const graph::parsed_edge& e) { builder.add_edge(e.u, e.v); }, in);
    });
    graph::dodgr<none, none> g(c);
    in_layer(c, "graph.builder:build_into", [&] { builder.build_into(g); });
    graph::freeze_options fo;
    fo.threads = threads;
    auto fz = in_layer(c, "graph.frozen:freeze", [&] { return graph::freeze(g, fo); });
    const auto bytes = in_layer(c, "graph.snapshot:save", [&] {
      return graph::save_snapshot(fz, out_prefix, kCodec);
    });
    cb::count_context ctx;
    const auto r = in_layer(c, "core.survey:run", [&] {
      return cb::plan_for(fz, cb::count_callback{}, ctx)
          .run({tripoll::survey_mode::push_pull, threads})
          .slice(0);
    });
    const auto tri = ctx.global_count(c);
    const auto total_bytes = c.all_reduce_sum(bytes);
    if (c.rank0()) {
      triangles = tri;
      sample("io.mb", mb);
      sample("builder.peel_waves", static_cast<double>(builder.peel_stats().waves));
      sample("snapshot.bytes", static_cast<double>(total_bytes));
      sample_survey(r, tri, false);
    }
  });
  sample_world(run_stats);
  return triangles;
}

void prepare_cold(const options& o, const sizes& sz) {
  const cold_paths p(o.dir);
  gen::rmat_params params;
  params.scale = sz.rmat_scale;
  params.edge_factor = 16;
  params.seed = generator_seed(params.seed, o.seed);
  const gen::rmat_generator g(params);
  const relabel id(o.seed, params.scale);
  std::vector<graph::edge> edges;
  edges.reserve(g.num_edges());
  {
    graph::edge_list_writer w(p.edges);
    for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
      const auto e = g.edge_at(k);
      w.write(id(e.u), id(e.v));
      edges.push_back({id(e.u), id(e.v)});
    }
  }
  const auto triangles = tripoll::baselines::serial_triangle_count(edges);
  // The snapshot set-up reloads: built by the pipeline under test, untimed.
  const auto built = cold_pipeline(p.edges, p.snapshot, kRanks, kThreads, 0.0);
  if (built != triangles) {
    throw std::runtime_error("prepare: pipeline count " + std::to_string(built) +
                             " != serial reference " + std::to_string(triangles));
  }
  write_kv(p.info, {{"edges", std::to_string(edges.size())},
                    {"file_bytes", std::to_string(file_bytes(p.edges))},
                    {"snapshot_bytes", std::to_string(snapshot_bytes(p.snapshot, kRanks))},
                    {"triangles", std::to_string(triangles)}});
}

void run_cold(const options& o, results& res) {
  const cold_paths p(o.dir);
  const kv info = read_kv(p.info);
  const auto want = kv_u64(info, "triangles");
  const double mb = static_cast<double>(kv_u64(info, "file_bytes")) / 1e6;
  const std::string out_prefix = o.dir + "/run-" + std::to_string(::getpid());
  res.env = info;

  // Set-up: reopen the durable snapshot and answer once.
  const auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      try {
        const double t0 = now_s();
        std::uint64_t tri = 0;
        comm::runtime::run(kRanks, [&](comm::communicator& c) {
          t_tracing = g_trace_mode;
          auto g = in_layer(c, "graph.snapshot:load",
                            [&] { return graph::load_snapshot<none, none>(c, p.snapshot); });
          cb::count_context ctx;
          (void)cb::plan_for(g, cb::count_callback{}, ctx)
              .run({tripoll::survey_mode::push_pull, kThreads});
          const auto n = ctx.global_count(c);
          if (c.rank0()) tri = n;
        });
        res.setup_seconds.push_back(now_s() - t0);
        expect_eq(tri, want, "cold-rmat set-up count");
      } catch (const std::exception& e) {
        phase_failed("cold-rmat set-up", e);
      }
    }
  };
  set_up(kSetups / 2);

  // Measured loop: full cold pipelines at 2 ranks x 2 threads, and every
  // third one the plain single-threaded baseline of the same problem (1
  // rank x 1 thread), so both sample the same stretch of machine time.
  const double loop_t0 = now_s();
  for (std::size_t i = 0, op = 0; now_s() - loop_t0 < o.seconds || i < 3; ++i) {
    const bool serial = i % 3 == 2;
    try {
      const double t0 = now_s();
      std::uint64_t tri = 0;
      if (serial) {
        tri = cold_pipeline(p.edges, out_prefix + "-serial", 1, 1, mb);
        res.serial_seconds.push_back(now_s() - t0);
      } else {
        {
          op_span sp("op:pipeline", traced_op(op));
          tri = cold_pipeline(p.edges, out_prefix, kRanks, kThreads, mb);
        }
        const double dt = now_s() - t0;
        record_op(res, op++, dt);
        res.items += static_cast<double>(kv_u64(info, "edges"));
        res.loop_seconds += dt;
      }
      expect_eq(tri, want, serial ? "cold-rmat serial pipeline count" : "cold-rmat pipeline count");
    } catch (const std::exception& e) {
      phase_failed("cold-rmat pipeline", e);
    }
  }
  set_up(kSetups - kSetups / 2);
  res.peak_rss_mb = peak_rss_mb();
  for (const auto& prefix : {out_prefix, out_prefix + "-serial"}) {
    for (int r = 0; r < kRanks; ++r) std::remove(graph::snapshot_rank_path(prefix, r).c_str());
  }
}

// =============================================================================
// serve-web: resident daemon over a metadata-rich web snapshot, two
// closed-loop clients.
// =============================================================================

using meta_frozen = graph::frozen_dodgr<std::uint64_t, std::uint64_t>;

struct serve_paths {
  std::string snapshot, serial_snapshot, info;
  explicit serve_paths(const std::string& dir)
      : snapshot(dir + "/web"), serial_snapshot(dir + "/web-serial"), info(dir + "/info.txt") {}
};

svc::plan_unit unit(svc::unit_kind kind, std::uint64_t param = 0) {
  return svc::plan_unit{static_cast<std::uint64_t>(kind), param};
}

/// The reference plan of the 1 rank x 1 thread baseline.
std::vector<svc::plan_unit> reference_plan() {
  return {unit(svc::unit_kind::count), unit(svc::unit_kind::hot_count, 500000),
          unit(svc::unit_kind::closure_digest), unit(svc::unit_kind::max_label)};
}

/// A client's plan stream: a fixed mix in which every fifth submission
/// repeats one of the client's last 8 plans and the others are fresh.
/// Fresh plans cycle through count / closure_digest / max_label / nothing,
/// each with a hot_count unit (4096 thresholds, so fresh plans almost never
/// hit the cache by chance), and one in four also carries a window unit (16
/// windows, each 5% of the timestamp range).  A window costs a second,
/// sender-filtered traversal; narrow windows keep it short, so the latency
/// stays close to one mode plus queueing instead of two modes with p90 on
/// the edge of the slower one.  The seed picks only the parameters and
/// which plan repeats, so the mix is the same at every seed.
class plan_stream {
 public:
  explicit plan_stream(std::uint64_t seed) : state_(seed) {}

  std::vector<svc::plan_unit> next() {
    std::vector<svc::plan_unit> plan;
    if (history_.size() % 5 == 4) {
      plan = history_[history_.size() - 1 - draw(std::min<std::uint64_t>(8, history_.size()))];
    } else {
      switch (fresh_ % 4) {
        case 0: plan.push_back(unit(svc::unit_kind::count)); break;
        case 1: plan.push_back(unit(svc::unit_kind::closure_digest)); break;
        case 2: plan.push_back(unit(svc::unit_kind::max_label)); break;
        default: break;
      }
      plan.push_back(unit(svc::unit_kind::hot_count, 7919 + 240 * draw(4096)));
      if ((fresh_ + fresh_ / 4) % 4 == 0) {
        const std::uint64_t t0 = 59375 * draw(16);
        plan.push_back(unit(svc::unit_kind::window, svc::pack_window_param(t0, t0 + 50000)));
      }
      ++fresh_;
    }
    history_.push_back(plan);
    return plan;
  }

 private:
  std::uint64_t draw(std::uint64_t n) {
    state_ = tripoll::serial::splitmix64(state_);
    return state_ % n;
  }

  std::uint64_t state_;
  std::uint64_t fresh_ = 0;
  std::vector<std::vector<svc::plan_unit>> history_;
};

void build_web_snapshot(const gen::web_generator& g, const relabel& id, const std::string& prefix,
                        int ranks) {
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    graph::graph_builder<std::uint64_t, std::uint64_t> builder(c);
    gen::for_rank_slice(c, g.num_edges(), [&](std::uint64_t k) {
      const auto e = g.edge_at(k);
      builder.add_edge(id(e.u), id(e.v), plan_edge_ts(id(e.u), id(e.v)));
    });
    graph::dodgr<std::uint64_t, std::uint64_t> dg(c);
    builder.build_into(dg);
    dg.for_all_local([](const vertex_id& v, auto& rec) {
      rec.meta = plan_vertex_label(v);
      for (auto& e : rec.adj) e.target_meta = plan_vertex_label(e.target);
    });
    auto fz = graph::freeze(dg);
    (void)graph::save_snapshot(fz, prefix, kCodec);
  });
}

void prepare_serve(const options& o, const sizes& sz) {
  const serve_paths p(o.dir);
  gen::web_params params;
  params.scale = sz.web_scale;
  params.seed = generator_seed(params.seed, o.seed);
  const gen::web_generator g(params);
  const relabel id(o.seed, params.scale);
  build_web_snapshot(g, id, p.snapshot, kRanks);
  build_web_snapshot(g, id, p.serial_snapshot, 1);
  write_kv(p.info, {{"edges", std::to_string(g.num_edges())},
                    {"snapshot_bytes", std::to_string(snapshot_bytes(p.snapshot, kRanks))}});
}

struct submission {
  std::vector<svc::plan_unit> units;
  std::vector<std::byte> reply;
  bool ok = false;  ///< a RESULT frame arrived (no exception, no ERROR)
};

/// Expected RESULT body: byte image of the daemon's reply for `units`.
std::vector<std::byte> expected_body(
    std::vector<svc::plan_unit> units, std::uint64_t sid, std::uint64_t engine_triangles,
    const std::map<svc::plan_unit, svc::unit_result>& reference) {
  svc::plan_request req;
  req.units = std::move(units);
  svc::canonicalize(req);
  svc::plan_response resp;
  resp.snapshot_id = sid;
  const bool has_base = std::any_of(req.units.begin(), req.units.end(), [](const auto& u) {
    return u.kind != static_cast<std::uint64_t>(svc::unit_kind::window);
  });
  resp.engine_triangles = has_base ? engine_triangles : 0;
  for (const auto& u : req.units) {
    auto r = reference.at(u);
    if (g_corrupt) ++r.fires;
    resp.units.push_back(r);
  }
  tripoll::serial::byte_buffer body;
  tripoll::serial::pack(body, resp);
  return {body.data(), body.data() + body.size()};
}

void run_serve(const options& o, const sizes&, results& res) {
  const serve_paths p(o.dir);
  res.env = read_kv(p.info);
  const std::string spec = "unix:" + o.dir + "/svc-" + std::to_string(::getpid()) + ".sock";

  // The plain single-threaded baseline: the reference plan answered
  // standalone at 1 rank x 1 thread over the 1-rank snapshot, half of the
  // repetitions before the daemon starts and half after it stops, so a slow
  // stretch at either end moves only half of them.  The answers are checked
  // once the daemon has computed the references.
  constexpr int kSerialReps = 16;
  std::vector<std::vector<svc::unit_result>> serial_out;
  const auto serial_phase = [&](int reps) {
    try {
      comm::runtime::run(1, [&](comm::communicator& c) {
        t_tracing = false;
        auto g = graph::load_snapshot<std::uint64_t, std::uint64_t>(c, p.serial_snapshot);
        for (int rep = 0; rep < reps; ++rep) {
          const double t0 = now_s();
          serial_out.push_back(svc::run_units(g, reference_plan(), svc::kModePushPull, 1));
          res.serial_seconds.push_back(now_s() - t0);
        }
      });
    } catch (const std::exception& e) {
      phase_failed("serve-web serial baseline", e);
    }
  };
  serial_phase(kSerialReps / 2);

  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;       // daemon loaded and about to serve
  bool oracle_go = false;   // clients done: daemon may compute references
  std::vector<svc::plan_unit> used_units;
  std::map<svc::plan_unit, svc::unit_result> reference;
  std::uint64_t sid = 0, engine_triangles = 0;
  std::vector<std::uint64_t> warm_counts;

  svc::service_options so;
  so.endpoint_spec = spec;
  so.threads = kThreads;
  so.install_signals = false;
  so.cache_capacity = 64;
  so.window_ms = 5;
  so.max_batch = 8;

  std::exception_ptr daemon_error;
  std::thread daemon([&] {
    try {
      comm::runtime::run(kRanks, [&](comm::communicator& c) {
        t_tracing = g_trace_mode;
        const auto world_start = c.local_stats();
        std::optional<meta_frozen> g;
        const auto set_up = [&](int reps) {  // load + warm-up
          for (int rep = 0; rep < reps; ++rep) {
            g.reset();
            c.barrier();
            const double t0 = now_s();
            g.emplace(in_layer(c, "graph.snapshot:load", [&] {
              return graph::load_snapshot<std::uint64_t, std::uint64_t>(c, p.snapshot);
            }));
            std::uint64_t tri = 0;
            (void)svc::run_units(*g, {unit(svc::unit_kind::count)}, svc::kModePushPull,
                                 kThreads, &tri);
            c.barrier();
            if (c.rank0()) {
              res.setup_seconds.push_back(now_s() - t0);
              warm_counts.push_back(tri);
            }
          }
        };
        set_up(kSetups / 2);
        if (c.rank0()) {
          const std::lock_guard<std::mutex> lock(mu);
          ready = true;
          cv.notify_all();
        }
        {
          svc::survey_service daemon_svc(*g, so);
          (void)daemon_svc.serve();
        }

        // Standalone reference over the same snapshot, for every unit used.
        if (c.rank0()) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return oracle_go; });
        }
        const auto units = c.broadcast(used_units, 0);
        std::uint64_t tri = 0;
        const auto out = svc::run_units(*g, units, svc::kModePushPull, kThreads, &tri);
        const auto id = svc::global_snapshot_id(*g);
        if (c.rank0()) {
          for (const auto& r : out) reference[{r.kind, r.param}] = r;
          engine_triangles = tri;
          sid = id;
        }
        if (g_trace_mode) {  // the layer's own survey metrics over this graph
          t_tracing = true;
          cb::count_context ctx;
          const auto r = in_layer(c, "core.survey:run", [&] {
            return cb::plan_for(*g, cb::count_callback{}, ctx)
                .run({tripoll::survey_mode::push_pull, kThreads})
                .slice(0);
          });
          const auto n = ctx.global_count(c);
          if (c.rank0()) sample_survey(r, n, false);
          sample_world(c, world_start);
        }
        t_tracing = g_trace_mode;
        set_up(kSetups - kSetups / 2);
      });
    } catch (...) {
      daemon_error = std::current_exception();
      const std::lock_guard<std::mutex> lock(mu);
      ready = true;
      cv.notify_all();
    }
  });

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
  }

  // Two closed-loop clients for the measured interval.
  constexpr int kClients = 2;
  std::vector<std::vector<submission>> subs(kClients);
  std::vector<std::vector<double>> lat(kClients), traced_lat(kClients);
  svc::service_stats stats{};
  const double loop_t0 = now_s();
  if (!daemon_error) {
    std::vector<std::thread> clients;
    for (int k = 0; k < kClients; ++k) {
      clients.emplace_back([&, k] {
        plan_stream plans(derive_seed(o.seed, 100 + static_cast<std::uint64_t>(k)));
        try {
          comm::service_client client(spec, 30.0);
          for (std::size_t i = 0; now_s() - loop_t0 < o.seconds; ++i) {
            submission s;
            s.units = plans.next();
            svc::plan_request req;
            req.units = s.units;
            const double t0 = now_s();
            {
              op_span op("op:plan", traced_op(i));
              span sp("service:submit", -1);
              try {
                s.reply = client.submit_raw(req);
                s.ok = true;
              } catch (const comm::service_error& e) {
                std::fprintf(stderr, "ERROR reply: %s\n", e.what());
              }
            }
            (traced_op(i) ? traced_lat : lat)[static_cast<std::size_t>(k)].push_back(now_s() - t0);
            subs[static_cast<std::size_t>(k)].push_back(std::move(s));
          }
        } catch (const std::exception& e) {
          phase_failed("serve-web client " + std::to_string(k), e);
        }
      });
    }
    for (auto& t : clients) t.join();
    res.loop_seconds = now_s() - loop_t0;
    try {
      comm::service_client control(spec, 30.0);
      {
        t_tracing = g_trace_mode;
        span sp("service:stats", -1);
        stats = control.stats();
      }
      if (g_trace_mode) {
        // Hit vs miss latency: fresh plans (misses) and their repeats (hits).
        t_tracing = true;
        for (std::uint64_t r = 0; r < 10; ++r) {
          submission s;
          s.units = {unit(svc::unit_kind::hot_count, 1000003 + r)};
          svc::plan_request req;
          req.units = s.units;
          for (const char* key : {"service.miss_s", "service.hit_s"}) {
            const double t0 = now_s();
            span sp("service:submit", -1);
            s.reply = control.submit_raw(req);
            s.ok = true;
            sample(key, now_s() - t0);
            subs[0].push_back(s);
          }
        }
      }
      control.shutdown();
    } catch (const std::exception& e) {
      phase_failed("serve-web control client", e);
      svc::request_stop();  // never leave the daemon serving
    }
  }

  // Release the daemon into its reference pass over every unit submitted.
  {
    const std::lock_guard<std::mutex> lock(mu);
    for (const auto& client_subs : subs) {
      for (const auto& s : client_subs) {
        used_units.insert(used_units.end(), s.units.begin(), s.units.end());
      }
    }
    for (const auto& u : reference_plan()) used_units.push_back(u);
    svc::plan_request all;
    all.units = used_units;
    svc::canonicalize(all);
    used_units = all.units;
    oracle_go = true;
    cv.notify_all();
  }
  daemon.join();
  res.peak_rss_mb = peak_rss_mb();
  if (daemon_error) {
    try {
      std::rethrow_exception(daemon_error);
    } catch (const std::exception& e) {
      phase_failed("serve-web daemon", e);
    }
    return;
  }

  // Every reply must be byte-identical to the standalone reference.
  for (const auto n : warm_counts) {
    expect_eq(n, reference.at(unit(svc::unit_kind::count)).fires, "serve-web warm-up count");
  }
  for (std::size_t k = 0; k < subs.size(); ++k) {
    for (const auto& s : subs[k]) {
      const bool ok = s.ok && s.reply == expected_body(s.units, sid, engine_triangles, reference);
      tally(ok, "serve-web reply (client " + std::to_string(k) + ")");
    }
    res.op_seconds.insert(res.op_seconds.end(), lat[k].begin(), lat[k].end());
    res.traced_op_seconds.insert(res.traced_op_seconds.end(), traced_lat[k].begin(),
                                 traced_lat[k].end());
    res.items += static_cast<double>(lat[k].size() + traced_lat[k].size());
  }
  if (g_trace_mode) {
    t_tracing = true;
    if (stats.plans_served > 0) {
      sample("service.cache_hit_frac",
             static_cast<double>(stats.cache_hits) / static_cast<double>(stats.plans_served));
    }
    if (stats.traversals > 0) {
      sample("service.plans_per_traversal",
             static_cast<double>(stats.cache_misses) / static_cast<double>(stats.traversals));
    }
    sample("service.rejected", static_cast<double>(stats.rejected));
    sample("snapshot.bytes", static_cast<double>(kv_u64(res.env, "snapshot_bytes")));
  }

  serial_phase(kSerialReps - kSerialReps / 2);
  for (const auto& out : serial_out) {
    for (const auto& r : out) {
      expect_eq(r.fires, reference.at({r.kind, r.param}).fires, "serve-web serial fires");
      expect_eq(r.value, reference.at({r.kind, r.param}).value, "serve-web serial value");
    }
  }
}

// =============================================================================
// stream-temporal: base snapshot (earliest 80% by timestamp) + the rest as
// batch files through the streaming overlay.
// =============================================================================

using ts_frozen = graph::frozen_dodgr<none, std::uint64_t>;
using ts_overlay = graph::overlay<none, std::uint64_t>;

struct stream_paths {
  std::string dir, base, serial_base, info, oracle;
  explicit stream_paths(const std::string& d)
      : dir(d), base(d + "/base"), serial_base(d + "/base-serial"), info(d + "/info.txt"),
        oracle(d + "/oracle.txt") {}
  [[nodiscard]] std::string batch(int b) const {
    char name[32];
    std::snprintf(name, sizeof(name), "/batch-%03d.txt", b);
    return dir + name;
  }
};

/// Reference answers of one pass, per batch: the window, the windowed
/// count, the accepted-edge count, the expiry cut (0: none) and, at a
/// checkpoint (every expiry and the last batch), the unwindowed count of
/// every edge still stored after the step.  Index 0 is the set-up warm-up
/// over the base alone.
struct stream_oracle {
  struct step {
    std::uint64_t t0 = 0, t1 = 0, windowed = 0, accepted = 0, expire = 0;
    std::uint64_t checkpoint = 0;  ///< 1: the pass may stop and compact here
    std::uint64_t surviving = 0;   ///< triangles of the stored edges (checkpoints)
  };
  std::vector<step> steps;  ///< [0] = warm-up, [b + 1] = batch b

  void save(const std::string& path) const {
    std::ofstream out(path + ".tmp");
    out << steps.size() << '\n';
    for (const auto& s : steps) {
      out << s.t0 << ' ' << s.t1 << ' ' << s.windowed << ' ' << s.accepted << ' ' << s.expire
          << ' ' << s.checkpoint << ' ' << s.surviving << '\n';
    }
    out.close();
    if (!out || std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
      throw std::runtime_error("cannot write " + path);
    }
  }
  static stream_oracle load(const std::string& path) {
    std::ifstream in(path);
    stream_oracle o;
    std::size_t n = 0;
    if (!(in >> n)) throw std::runtime_error("cannot read " + path);
    o.steps.resize(n);
    for (auto& s : o.steps) {
      in >> s.t0 >> s.t1 >> s.windowed >> s.accepted >> s.expire >> s.checkpoint >> s.surviving;
    }
    if (!in) throw std::runtime_error("truncated " + path);
    return o;
  }
};

void build_stream_base(const std::vector<gen::temporal_edge>& edges, std::size_t n,
                       const std::string& prefix, int ranks) {
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    graph::graph_builder<none, std::uint64_t, graph::merge::keep_least> builder(c);
    gen::for_rank_slice(c, n, [&](std::uint64_t k) {
      builder.add_edge(edges[k].u, edges[k].v, edges[k].timestamp);
    });
    graph::dodgr<none, std::uint64_t> g(c);
    builder.build_into(g);
    auto fz = graph::freeze(g);
    (void)graph::save_snapshot(fz, prefix, kCodec);
  });
}

void prepare_stream(const options& o, const sizes& sz) {
  const stream_paths p(o.dir);
  gen::temporal_params params;
  params.scale = sz.temporal_scale;
  params.seed = generator_seed(params.seed, o.seed);
  const gen::temporal_generator g(params);
  const relabel id(o.seed, params.scale);
  std::vector<gen::temporal_edge> edges(g.num_edges());
  for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
    const auto e = g.edge_at(k);
    edges[k] = {id(e.u), id(e.v), e.timestamp};
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const auto& a, const auto& b) { return a.timestamp < b.timestamp; });

  const std::size_t n = edges.size();
  const std::size_t base_n = n * 8 / 10;
  const std::size_t bs = (n - base_n) / static_cast<std::size_t>(sz.batches);
  const std::size_t window = bs * static_cast<std::size_t>(sz.window_batches);
  build_stream_base(edges, base_n, p.base, kRanks);
  build_stream_base(edges, base_n, p.serial_base, 1);

  // Serial model of the overlay: stored edge -> timestamp; a batch keeps its
  // earliest copy of an edge, a stored edge wins over a re-arrival, expiry
  // drops stored edges older than the cut.
  std::unordered_map<std::uint64_t, std::uint64_t> stored;
  const auto key = [](vertex_id u, vertex_id v) {
    return (std::min(u, v) << 32) | std::max(u, v);
  };
  for (std::size_t k = 0; k < base_n; ++k) {
    if (edges[k].u == edges[k].v) continue;
    stored.emplace(key(edges[k].u, edges[k].v), edges[k].timestamp);  // sorted: first is least
  }
  // Reference counts are serial triangle counts of stored-edge subsets,
  // queued here and run on 4 threads at the end.
  std::vector<std::pair<std::uint64_t*, std::vector<graph::edge>>> counts;
  stream_oracle oracle;
  oracle.steps.reserve(static_cast<std::size_t>(sz.batches) + 1);
  const auto count_in = [&](std::uint64_t& out, std::uint64_t t0, std::uint64_t t1) {
    std::vector<graph::edge> in;
    for (const auto& [k, ts] : stored) {
      if (ts >= t0 && ts < t1) in.push_back({k >> 32, k & 0xffffffffull});
    }
    counts.emplace_back(&out, std::move(in));
  };
  const auto window_at = [&](std::size_t end) {  // the latest `window` edges' time span
    return std::pair{edges[end - window].timestamp, edges[end - 1].timestamp + 1};
  };

  {
    const auto [t0, t1] = window_at(base_n);
    count_in(oracle.steps.emplace_back(stream_oracle::step{t0, t1}).windowed, t0, t1);
  }
  for (int b = 0; b < sz.batches; ++b) {
    const std::size_t lo = base_n + static_cast<std::size_t>(b) * bs;
    const std::size_t hi = b + 1 == sz.batches ? n : lo + bs;
    {
      graph::edge_list_writer w(p.batch(b));
      for (std::size_t k = lo; k < hi; ++k) w.write(edges[k].u, edges[k].v, edges[k].timestamp);
    }
    std::uint64_t accepted = 0;
    for (std::size_t k = lo; k < hi; ++k) {  // sorted: first copy in a batch is least
      if (edges[k].u == edges[k].v) continue;
      accepted += stored.emplace(key(edges[k].u, edges[k].v), edges[k].timestamp).second;
    }
    auto& s = oracle.steps.emplace_back();
    std::tie(s.t0, s.t1) = window_at(hi);
    count_in(s.windowed, s.t0, s.t1);
    s.accepted = accepted;
    if ((b + 1) % sz.expire_every == 0 && b + 1 < sz.batches) {
      s.expire = edges[hi - base_n].timestamp;  // slide by what has streamed in
      std::erase_if(stored, [&](const auto& kvp) { return kvp.second < s.expire; });
    }
    if ((b + 1) % sz.expire_every == 0 || b + 1 == sz.batches) {
      s.checkpoint = 1;
      count_in(s.surviving, 0, ~std::uint64_t{0});
    }
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < counts.size();) {
        *counts[i].first = tripoll::baselines::serial_triangle_count(counts[i].second);
      }
    });
  }
  for (auto& w : workers) w.join();
  oracle.save(p.oracle);
  write_kv(p.info, {{"edges", std::to_string(n)},
                    {"base_edges", std::to_string(base_n)},
                    {"batch_edges", std::to_string(bs)},
                    {"batches", std::to_string(sz.batches)},
                    {"snapshot_bytes", std::to_string(snapshot_bytes(p.base, kRanks))}});
}

/// One batch: batch file -> read_edge_list -> overlay::ingest -> windowed
/// count.  Collective; returns {windowed count, accepted}.
std::pair<std::uint64_t, std::uint64_t> stream_batch(comm::communicator& c, ts_overlay& ov,
                                                     const std::string& file,
                                                     const stream_oracle::step& s,
                                                     int threads) {
  ts_overlay::edge_batch batch;
  in_layer(c, "graph.io:read_edge_list", [&] {
    return graph::read_edge_list(c, file, [&](const graph::parsed_edge& e) {
      batch.push_back({e.u, e.v, e.weight.value_or(0)});
    });
  });
  const auto st = in_layer(c, "graph.overlay:ingest", [&] { return ov.ingest(batch); });
  cb::count_context ctx;
  const auto r = in_layer(c, "core.survey:window", [&] {
    return cb::plan_for(ov, cb::count_callback{}, ctx)
        .window(s.t0, s.t1)
        .run({tripoll::survey_mode::push_pull, threads})
        .slice(0);
  });
  const auto n = ctx.global_count(c);
  if (c.rank0() && t_tracing) {
    sample("io.mb", static_cast<double>(file_bytes(file)) / 1e6);
    sample("overlay.submitted", static_cast<double>(st.submitted));
    sample("overlay.accepted", static_cast<double>(st.accepted));
    sample("overlay.rebuilt_per_batch", static_cast<double>(st.rebuilt_vertices));
    sample_survey(r, n, true);
  }
  return {n, st.accepted};
}

void run_stream(const options& o, const sizes& sz, results& res) {
  const stream_paths p(o.dir);
  res.env = read_kv(p.info);
  const auto oracle = stream_oracle::load(p.oracle);
  if (oracle.steps.size() != static_cast<std::size_t>(sz.batches) + 1) {
    throw std::runtime_error("stream oracle does not match --size");
  }
  const std::string out_prefix = o.dir + "/compacted-" + std::to_string(::getpid());
  double stream_wall = 0.0, accepted_total = 0.0;
  std::uint64_t final_reload = 0, reload_want = 0;

  // The plain single-threaded baseline: the first two expiry periods of
  // batches at 1 x 1 over a fresh overlay, checked like the measured loop.
  // One pass runs before the measured loop and one after it, so a slow
  // stretch at either end moves only half of the samples.
  const auto serial_pass = [&] {
    try {
      comm::runtime::run(1, [&](comm::communicator& c) {
        t_tracing = false;
        auto base = graph::load_snapshot<none, std::uint64_t>(c, p.serial_base);
        ts_overlay ov(base);
        for (int b = 0; b < sz.serial_batches(); ++b) {
          const auto& s = oracle.steps[static_cast<std::size_t>(b) + 1];
          const double t0 = now_s();
          const auto got = stream_batch(c, ov, p.batch(b), s, 1);
          res.serial_seconds.push_back(now_s() - t0);
          expect_eq(got.first, s.windowed, "stream-temporal serial windowed count");
          expect_eq(got.second, s.accepted, "stream-temporal serial accepted edges");
          if (s.expire != 0) (void)ov.expire_before(s.expire);
        }
      });
    } catch (const std::exception& e) {
      phase_failed("stream-temporal serial baseline", e);
    }
  };
  serial_pass();

  try {
    comm::runtime::run(kRanks, [&](comm::communicator& c) {
      t_tracing = g_trace_mode;
      const auto world_start = c.local_stats();
      std::optional<ts_frozen> base;
      std::optional<ts_overlay> ov;
      const auto set_up = [&](int reps) {  // load + overlay + warm-up
        for (int rep = 0; rep < reps; ++rep) {
          ov.reset();
          base.reset();
          c.barrier();
          const double t0 = now_s();
          base.emplace(in_layer(c, "graph.snapshot:load", [&] {
            return graph::load_snapshot<none, std::uint64_t>(c, p.base);
          }));
          ov.emplace(*base);
          cb::count_context ctx;
          (void)cb::plan_for(*ov, cb::count_callback{}, ctx)
              .window(oracle.steps[0].t0, oracle.steps[0].t1)
              .run({tripoll::survey_mode::push_pull, kThreads});
          const auto n = ctx.global_count(c);
          if (c.rank0()) {
            res.setup_seconds.push_back(now_s() - t0);
            expect_eq(n, oracle.steps[0].windowed, "stream-temporal warm-up windowed count");
          }
        }
      };
      set_up(kSetups / 2);

      // Passes over the batches until the time is up; a pass may stop at
      // any checkpoint.  Each pass ends with compact + compressed save.
      const double loop_t0 = now_s();
      std::size_t op = 0;
      for (bool more = true; more;) {
        if (op > 0) {  // untimed reset to the base for another pass
          ov.reset();
          ov.emplace(*base);
        }
        std::uint64_t surviving = 0;
        for (int b = 0; b < sz.batches; ++b) {
          const auto& s = oracle.steps[static_cast<std::size_t>(b) + 1];
          c.barrier();
          t_tracing = traced_op(op);
          const double t0 = now_s();
          std::pair<std::uint64_t, std::uint64_t> got;
          {
            std::optional<op_span> sp;
            if (c.rank0()) sp.emplace("op:batch", traced_op(op));
            got = stream_batch(c, *ov, p.batch(b), s, kThreads);
          }
          t_tracing = traced_op(op);
          const double dt = now_s() - t0;
          double expire_dt = 0.0;
          if (s.expire != 0) {
            const double te = now_s();
            (void)in_layer(c, "graph.overlay:expire", [&] { return ov->expire_before(s.expire); });
            expire_dt = now_s() - te;
          }
          if (c.rank0()) {
            record_op(res, op, dt);
            stream_wall += dt + expire_dt;
            accepted_total += static_cast<double>(got.second);
            expect_eq(got.first, s.windowed, "stream-temporal batch windowed count");
            expect_eq(got.second, s.accepted, "stream-temporal batch accepted edges");
          }
          ++op;
          if (s.checkpoint != 0) {
            surviving = s.surviving;
            if (c.broadcast(now_s() - loop_t0, 0) >= o.seconds) {
              more = false;
              break;
            }
          }
        }
        t_tracing = g_trace_mode;
        graph::freeze_options fo;
        fo.threads = kThreads;
        auto fz = in_layer(c, "graph.overlay:compact", [&] { return ov->compact(fo); });
        const auto bytes = in_layer(c, "graph.snapshot:save",
                                    [&] { return graph::save_snapshot(fz, out_prefix, kCodec); });
        const auto total_bytes = c.all_reduce_sum(bytes);
        // The unwindowed overlay count must equal a rebuild of the
        // surviving edges.
        cb::count_context ctx;
        (void)cb::plan_for(*ov, cb::count_callback{}, ctx)
            .run({tripoll::survey_mode::push_pull, kThreads});
        const auto n = ctx.global_count(c);
        if (c.rank0()) {
          sample("snapshot.bytes", static_cast<double>(total_bytes));
          expect_eq(n, surviving, "stream-temporal unwindowed overlay count");
          reload_want = surviving;
        }
      }
      if (c.rank0()) {
        res.loop_seconds = stream_wall;
        res.items = accepted_total;
      }
      t_tracing = g_trace_mode;
      sample_world(c, world_start);
      set_up(kSetups - kSetups / 2);
    });
  } catch (const std::exception& e) {
    phase_failed("stream-temporal stream", e);
  }
  res.peak_rss_mb = peak_rss_mb();

  // The compacted snapshot must reload to the same answer.
  try {
    comm::runtime::run(kRanks, [&](comm::communicator& c) {
      t_tracing = false;
      auto g = graph::load_snapshot<none, std::uint64_t>(c, out_prefix);
      cb::count_context ctx;
      (void)cb::plan_for(g, cb::count_callback{}, ctx)
          .run({tripoll::survey_mode::push_pull, kThreads});
      const auto n = ctx.global_count(c);
      if (c.rank0()) final_reload = n;
    });
    expect_eq(final_reload, reload_want, "stream-temporal compacted reload count");
  } catch (const std::exception& e) {
    phase_failed("stream-temporal reload", e);
  }
  for (int r = 0; r < kRanks; ++r) std::remove(graph::snapshot_rank_path(out_prefix, r).c_str());

  serial_pass();
}

// =============================================================================
// per-layer metrics from the spans
// =============================================================================

/// One collective call of a layer: the slowest rank's and the mean rank's
/// wall time, and the summed comm deltas over ranks.
struct call_stat {
  double max_s = 0.0, mean_s = 0.0;
  comm::stats_snapshot comm{};
};

std::vector<call_stat> layer_calls(const std::string& name) {
  std::map<int, std::vector<const span_record*>> by_rank;
  for (const auto& s : g_spans) {
    if (s.name == name) by_rank[s.rank].push_back(&s);
  }
  std::vector<call_stat> out;
  if (by_rank.empty()) return out;
  std::size_t calls = SIZE_MAX;
  for (auto& [rank, v] : by_rank) {
    std::sort(v.begin(), v.end(), [](auto* a, auto* b) { return a->start < b->start; });
    calls = std::min(calls, v.size());
  }
  for (std::size_t i = 0; i < calls; ++i) {
    call_stat cs;
    for (const auto& [rank, v] : by_rank) {
      const double d = v[i]->end - v[i]->start;
      cs.max_s = std::max(cs.max_s, d);
      cs.mean_s += d / static_cast<double>(by_rank.size());
      cs.comm = cs.comm + v[i]->comm;
    }
    out.push_back(cs);
  }
  return out;
}

template <typename F>
double median_of(const std::vector<call_stat>& calls, F&& f) {
  std::vector<double> v;
  for (const auto& cs : calls) v.push_back(f(cs));
  return median(v);
}

double med_sample(const std::string& key) {
  const auto it = g_samples.find(key);
  return it == g_samples.end() ? 0.0 : median(it->second);
}

double sum_sample(const std::string& key) {
  const auto it = g_samples.find(key);
  double s = 0.0;
  if (it != g_samples.end()) {
    for (const double x : it->second) s += x;
  }
  return s;
}

std::map<std::string, double> layer_metrics(const results& res) {
  std::map<std::string, double> m;
  const auto wall = [](const call_stat& cs) { return cs.max_s; };
  const auto skew = [](const call_stat& cs) { return cs.mean_s > 0 ? cs.max_s / cs.mean_s : 0.0; };
  const auto remote = [](const call_stat& cs) { return static_cast<double>(cs.comm.remote_bytes); };

  const auto io = layer_calls("graph.io:read_edge_list");
  m["io.ingest_s"] = median_of(io, wall);
  m["io.mb_per_s"] = m["io.ingest_s"] > 0 ? med_sample("io.mb") / m["io.ingest_s"] : 0.0;
  m["io.remote_bytes"] = median_of(io, remote);
  m["io.skew"] = median_of(io, skew);

  const auto build = layer_calls("graph.builder:build_into");
  m["builder.build_s"] = median_of(build, wall);
  m["builder.remote_bytes"] = median_of(build, remote);
  m["builder.messages"] =
      median_of(build, [](const call_stat& cs) { return static_cast<double>(cs.comm.messages_sent); });
  m["builder.peel_waves"] = med_sample("builder.peel_waves");
  m["builder.skew"] = median_of(build, skew);

  m["frozen.freeze_s"] = median_of(layer_calls("graph.frozen:freeze"), wall);

  m["snapshot.save_s"] = median_of(layer_calls("graph.snapshot:save"), wall);
  m["snapshot.load_s"] = median_of(layer_calls("graph.snapshot:load"), wall);
  m["snapshot.bytes"] = med_sample("snapshot.bytes");

  auto surveys = layer_calls("core.survey:run");
  const auto windows = layer_calls("core.survey:window");
  surveys.insert(surveys.end(), windows.begin(), windows.end());
  m["survey.total_s"] = median_of(surveys, wall);
  for (const char* k : {"survey.dry_run_s", "survey.push_s", "survey.pull_s", "survey.volume_bytes",
                        "survey.messages", "survey.pulls_granted", "survey.wedge_candidates",
                        "survey.close_ratio", "survey.candidates_per_s", "survey.bitmap_frac",
                        "survey.window_volume_bytes"}) {
    m[k] = med_sample(k);
  }
  m["survey.skew"] = median_of(surveys, skew);
  m["survey.window_ms"] = 1e3 * median_of(windows, wall);

  m["comm.bytes_per_buffer"] = med_sample("comm.bytes_per_buffer");
  m["comm.handlers_run"] = med_sample("comm.handlers_run");

  const auto ingest = layer_calls("graph.overlay:ingest");
  m["overlay.ingest_ms"] = 1e3 * median_of(ingest, wall);
  const double submitted = sum_sample("overlay.submitted");
  m["overlay.accepted_frac"] = submitted > 0 ? sum_sample("overlay.accepted") / submitted : 0.0;
  m["overlay.rebuilt_per_batch"] = med_sample("overlay.rebuilt_per_batch");
  m["overlay.remote_bytes"] = median_of(ingest, remote);
  m["overlay.expire_ms"] = 1e3 * median_of(layer_calls("graph.overlay:expire"), wall);
  m["overlay.compact_s"] = median_of(layer_calls("graph.overlay:compact"), wall);

  m["service.hit_ms"] = 1e3 * med_sample("service.hit_s");
  m["service.miss_ms"] = 1e3 * med_sample("service.miss_s");
  m["service.cache_hit_frac"] = med_sample("service.cache_hit_frac");
  m["service.plans_per_traversal"] = med_sample("service.plans_per_traversal");
  m["service.rejected"] = med_sample("service.rejected");

  // Cover: direct children of each traced operation on its own rank (rank 0
  // or the harness thread) over the operation's wall time.
  std::map<int, const span_record*> ops;
  for (const auto& s : g_spans) {
    if (s.name == "op:pipeline" || s.name == "op:batch" || s.name == "op:plan") ops[s.id] = &s;
  }
  std::map<int, double> covered;
  for (const auto& s : g_spans) {
    if (ops.count(s.parent) != 0 && s.rank <= 0) covered[s.parent] += s.end - s.start;
  }
  std::vector<double> cover;
  for (const auto& [id, s] : ops) cover.push_back(covered[id] / (s->end - s->start));
  m["trace.cover_frac"] = median(cover);
  const double untraced = median(res.op_seconds);
  m["trace.overhead_frac"] =
      untraced > 0 ? (median(res.traced_op_seconds) - untraced) / untraced : 0.0;
  return m;
}

/// Chrome trace-event JSON plus a per-layer summary with self time.
void write_trace(const std::string& path) {
  std::map<int, double> child_time;
  for (const auto& s : g_spans) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  std::map<std::string, std::pair<double, double>> layer;  // total, self
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const auto& s = g_spans[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"rank\": %d, "
                  "\"remote_bytes\": %llu, \"messages\": %llu}}%s\n",
                  s.name.c_str(), s.tid, s.start * 1e6, (s.end - s.start) * 1e6, s.id, s.parent,
                  s.rank, (unsigned long long)s.comm.remote_bytes,
                  (unsigned long long)s.comm.messages_sent, i + 1 == g_spans.size() ? "" : ",");
    out << line;
    const std::string name = s.name.substr(0, s.name.find(':'));
    const double d = s.end - s.start;
    layer[name].first += d;
    layer[name].second += d - child_time[s.id];
  }
  out << "],\n\"layerSummary\": {";
  bool first = true;
  for (const auto& [name, ts] : layer) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s\n  \"%s\": {\"total_s\": %.6f, \"self_s\": %.6f}",
                  first ? "" : ",", name.c_str(), ts.first, ts.second);
    out << line;
    first = false;
  }
  out << "\n}}\n";
}

// =============================================================================
// command line and result
// =============================================================================

std::string layer_unit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("mb_per_s")) return "MB/s";
  if (ends("per_s")) return "1/s";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("bytes") || ends("per_buffer")) return "bytes";
  if (ends("frac") || ends("ratio") || ends("skew")) return "ratio";
  return "count";
}

std::string llc_bytes() {
  for (int idx = 3; idx >= 0; --idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/size");
    std::string v;
    if (in >> v) return v;
  }
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench prepare|run --workload <cold-rmat|serve-web|stream-temporal>\n"
               "         --seed N --dir D [--seconds S] [--trace 0|1] [--size tiny]\n"
               "         [--corrupt-reference]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  options o;
  if (argc < 2) return usage();
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--dir") o.dir = value();
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--size") o.tiny = value() == "tiny";
    else if (a == "--corrupt-reference") o.corrupt_reference = true;
    else return usage();
  }
  if (o.dir.empty() || (o.mode != "prepare" && o.mode != "run")) return usage();
  const sizes sz = sizes::of(o.tiny);

  if (o.mode == "prepare") {
    ::setenv("TRIPOLL_THREADS", std::to_string(kThreads).c_str(), 1);
    if (o.workload == "cold-rmat") prepare_cold(o, sz);
    else if (o.workload == "serve-web") prepare_serve(o, sz);
    else if (o.workload == "stream-temporal") prepare_stream(o, sz);
    else return usage();
    return 0;
  }

  // Snapshot decodes read TRIPOLL_THREADS; every other call passes its
  // thread count explicitly.
  ::setenv("TRIPOLL_THREADS", std::to_string(kThreads).c_str(), 1);
  ::unsetenv("TRIPOLL_PIN");
  ::unsetenv("TRIPOLL_DIRECT_IO");
  g_trace_mode = o.trace;
  g_corrupt = o.corrupt_reference;
  results res;
  if (o.workload == "cold-rmat") run_cold(o, res);
  else if (o.workload == "serve-web") run_serve(o, sz, res);
  else if (o.workload == "stream-temporal") run_stream(o, sz, res);
  else return usage();

  // Environment record: one line before the result.
  const unsigned hw = std::thread::hardware_concurrency();
  std::ostringstream env;
  env << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ", \"hw_threads\": " << hw << ", \"ranks\": " << kRanks << ", \"threads\": " << kThreads
      << ", \"serial_ranks\": 1, \"serial_threads\": 1, \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"llc\": \"" << llc_bytes()
      << "\", \"peak_rss_mb\": " << res.peak_rss_mb << ", \"size\": \""
      << (o.tiny ? "tiny" : "full") << "\"";
  for (const auto& [k, v] : res.env) env << ", \"input_" << k << "\": " << v;
  env << ", \"op_samples\": " << res.op_seconds.size() << "}";
  std::printf("env %s\n", env.str().c_str());

  std::map<std::string, std::pair<double, std::string>> out;
  if (!o.trace) {
    out = {{"setup_s", {median(res.setup_seconds), "s"}},
           {"op_p50_ms", {1e3 * percentile(res.op_seconds, 0.5), "ms"}},
           {"op_p90_ms", {1e3 * percentile(res.op_seconds, 0.9), "ms"}},
           {"items_per_s", {res.loop_seconds > 0 ? res.items / res.loop_seconds : 0.0, "1/s"}},
           {"serial_s", {median(res.serial_seconds), "s"}},
           {"peak_rss_mb", {res.peak_rss_mb, "MB"}}};
  } else {
    for (const auto& [name, value] : layer_metrics(res)) out[name] = {value, layer_unit(name)};
    write_trace(o.dir + "/trace-" + o.workload + "-s" + std::to_string(o.seed) + ".json");
  }

  const auto attempted = g_attempted.load();
  const auto failed = g_failed.load();
  bool complete = attempted > 0;
  for (const auto& [name, vu] : out) {
    if (!o.trace && !(vu.first > 0.0)) complete = false;  // a missing end-to-end value
  }
  std::ostringstream line;
  line.precision(10);
  line << "{\"correct\": " << (complete && failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : out) {
    line << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << vu.first
         << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
