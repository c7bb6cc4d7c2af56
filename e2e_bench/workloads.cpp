// The three workloads: certify (one cold sound Algorithm 1), requery
// (the Fig. 3 PDRmin ladder served from a warm store) and crowd (one
// multi-body sweep).  Every op builds its evaluator, store and scenario
// state afresh, so ops are identical and their times comparable.
#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "crowd/crowd.hpp"
#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
#include "dse/milp_encoding.hpp"
#include "exec/batch_evaluator.hpp"
#include "model/crowd.hpp"
#include "model/design_space.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/crowd_codec.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using hi::dse::Evaluator;
using hi::dse::EvaluatorSettings;
using hi::dse::ExplorationOptions;
using hi::dse::ExplorationResult;
using hi::model::NetworkConfig;

/// Worker threads of the certify and requery ops (closed loop, one
/// client, at most 2 workers on a 4-vCPU host).
constexpr int kThreads = 2;
constexpr int kRuns = 3;             ///< replications per design point
constexpr double kDseTsim = 5.0;     ///< certify / requery Tsim
constexpr double kCrowdTsim = 60.0;  ///< crowd Tsim

[[nodiscard]] std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

[[nodiscard]] Counts counts_of(const hi::obs::Snapshot& m) {
  Counts c;
  c.net_runs = m.counter("net.runs");
  c.des_events = m.counter("des.events");
  c.milp_solves = m.counter("milp.solves");
  c.lp_pivots = m.counter("milp.lp_pivots");
  c.sims = c.net_runs / kRuns;
  return c;
}

Counts& operator+=(Counts& a, const Counts& b) {
  a.net_runs += b.net_runs;
  a.des_events += b.des_events;
  a.milp_solves += b.milp_solves;
  a.lp_pivots += b.lp_pivots;
  a.sims += b.sims;
  return a;
}

/// Appends one failed check to an op's error text.
void add_error(std::string& err, const std::string& what) {
  err += (err.empty() ? "" : "; ") + what;
}

/// Adds "name: got X, want Y" to `err` when the two differ.
template <typename T>
void expect_eq(std::string& err, const std::string& name, const T& got,
               const T& want) {
  if (got == want) return;
  std::ostringstream os;
  os << name << ": got " << got << ", want " << want;
  add_error(err, os.str());
}

EvaluatorSettings dse_settings(const Settings& s) {
  EvaluatorSettings es;
  es.sim.duration_s = s.tsim_s > 0.0 ? s.tsim_s : kDseTsim;
  es.sim.seed = s.seed;
  es.runs = kRuns;
  es.threads = kThreads;
  return es;
}

ExplorationOptions sound_options(double pdr_min) {
  ExplorationOptions opt;
  opt.pdr_min = pdr_min;
  opt.threads = kThreads;
  opt.bound = hi::dse::TerminationBound::kSoundFloor;
  return opt;
}

/// The exhaustive optimum at one PDRmin: its power bits and every
/// design attaining them, so the check does not depend on how ties
/// between designs of bit-equal power are broken.
struct Optimum {
  bool feasible = false;
  std::uint64_t power_bits = 0;
  std::set<std::uint64_t> keys;
};

Optimum optimum_of(const std::vector<hi::dse::CandidateRecord>& history,
                   double pdr_min) {
  Optimum o;
  double best = 0.0;
  for (const auto& r : history) {
    if (r.sim_pdr < pdr_min) continue;
    if (!o.feasible || r.sim_power_mw < best) {
      o.feasible = true;
      best = r.sim_power_mw;
    }
  }
  o.power_bits = bits(best);
  for (const auto& r : history) {
    if (r.sim_pdr >= pdr_min && bits(r.sim_power_mw) == o.power_bits) {
      o.keys.insert(r.cfg.design_key());
    }
  }
  return o;
}

void check_optimum(std::string& err, const ExplorationResult& res,
                   const Optimum& ref, bool corrupt) {
  double power = res.best_power_mw;
  if (corrupt) power = std::bit_cast<double>(bits(power) ^ 1);
  expect_eq(err, "feasible", res.feasible, ref.feasible);
  if (!ref.feasible || !res.feasible) return;
  expect_eq(err, "optimum power bits", bits(power), ref.power_bits);
  if (!ref.keys.contains(res.best.design_key())) {
    add_error(err, "optimum design is not an exhaustive optimum");
  }
}

/// The replay's MILP and simulation counters must equal the op's own.
void expect_replay_counts(std::string& err, const hi::obs::Snapshot& milp,
                          const hi::obs::Snapshot& batch,
                          const hi::obs::Snapshot& sims, const Counts& op) {
  const Counts m = counts_of(milp);
  expect_eq(err, "milp replay milp.solves", m.milp_solves, op.milp_solves);
  expect_eq(err, "milp replay milp.lp_pivots", m.lp_pivots, op.lp_pivots);
  for (const auto& [layer, snap] :
       {std::pair{"batch replay", &batch}, std::pair{"simulate replay", &sims}}) {
    const Counts r = counts_of(*snap);
    expect_eq(err, std::string(layer) + " net.runs", r.net_runs, op.net_runs);
    expect_eq(err, std::string(layer) + " des.events", r.des_events,
              op.des_events);
  }
}

void put_channel_stats(const ChannelStats& cs, LayerValues& out) {
  out["channel.samples"] = static_cast<double>(cs.samples.load());
  out["channel.sample_ns"] =
      cs.timed_samples > 0 ? static_cast<double>(cs.timed_ns.load()) /
                                 static_cast<double>(cs.timed_samples.load())
                           : 0.0;
  out["channel.batch_width_mean"] =
      cs.batch_calls > 0 ? static_cast<double>(cs.batch_width.load()) /
                               static_cast<double>(cs.batch_calls.load())
                         : 0.0;
}

// --- replay of Algorithm 1's layer calls ------------------------------

/// Re-solves Algorithm 1's MILP level by level on a fresh encoding: the
/// `iterations` rounds it simulated and cut, then the round it stopped
/// on.  Returns each simulated round's candidates.
std::vector<std::vector<NetworkConfig>> replay_milp(
    const hi::model::Scenario& sc, int iterations,
    hi::obs::MetricsRegistry& reg, Tracer& tr, int op) {
  hi::dse::MilpEncoding enc(sc);
  hi::milp::Options mo;
  mo.metrics = &reg;
  std::vector<std::vector<NetworkConfig>> rounds;
  for (int i = 0; i <= iterations; ++i) {
    ScopedSpan span(&tr, "milp.round", op);
    hi::dse::MilpRound round = enc.run_milp(mo);
    if (i == iterations) break;
    enc.add_power_cut_above(round.power_mw);
    rounds.push_back(std::move(round.candidates));
  }
  return rounds;
}

/// The replayed rounds must propose exactly the op's history.
void expect_history(std::string& err,
                    const std::vector<std::vector<NetworkConfig>>& rounds,
                    const ExplorationResult& res) {
  std::size_t k = 0;
  bool same = true;
  for (const auto& round : rounds) {
    for (const NetworkConfig& cfg : round) {
      same = same && k < res.history.size() && res.history[k].cfg == cfg;
      ++k;
    }
  }
  if (!same || k != res.history.size()) {
    add_error(err, "replayed MILP rounds differ from the op's history");
  }
}

/// Batch-evaluates every round on `eval`, as Algorithm 1 does.
struct BatchReplay {
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  double batch_s = 0.0;  ///< wall time of all batch calls
  double serve_s = 0.0;  ///< wall time of batches served wholly from cache
  std::vector<NetworkConfig> fresh;  ///< designs the batches simulated
};

BatchReplay replay_batches(Evaluator& eval,
                           const std::vector<std::vector<NetworkConfig>>& rounds,
                           Tracer& tr, int op) {
  BatchReplay b;
  hi::exec::BatchEvaluator batch(eval, kThreads);
  for (const auto& round : rounds) {
    std::set<std::uint64_t> seen;
    const std::size_t fresh_before = b.fresh.size();
    for (const NetworkConfig& cfg : round) {
      if (!eval.cached(cfg) && seen.insert(cfg.design_key()).second) {
        b.fresh.push_back(cfg);
      }
    }
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(&tr, "exec.batch", op);
      (void)batch.evaluate(round);
    }
    const double dt = seconds_since(t0);
    ++b.batches;
    b.requests += round.size();
    b.batch_s += dt;
    if (b.fresh.size() == fresh_before) b.serve_s += dt;
  }
  return b;
}

/// Simulates each fresh design once more through simulate_uncached on
/// its own evaluator, one span per design; returns those evaluations.
std::vector<hi::dse::Evaluation> replay_simulations(
    const EvaluatorSettings& settings, const std::vector<NetworkConfig>& fresh,
    hi::obs::MetricsRegistry& reg, Tracer& tr, int op) {
  EvaluatorSettings s = settings;
  s.metrics = &reg;
  const Evaluator eval(s);
  std::vector<hi::dse::Evaluation> out;
  out.reserve(fresh.size());
  for (const NetworkConfig& cfg : fresh) {
    ScopedSpan span(&tr, "net.simulate", op);
    out.push_back(eval.simulate_uncached(cfg));
  }
  return out;
}

/// Layer values shared by the certify and requery replays.
void put_dse_layers(LayerValues& out, Tracer& tr, int op,
                    const hi::obs::Snapshot& milp_reg,
                    const hi::obs::Snapshot& batch_reg,
                    const hi::obs::Snapshot& net_reg, const BatchReplay& b,
                    double feasible_designs) {
  const double op_s = tr.total("op", op);
  const std::vector<double> rounds = tr.durations("milp.round", op);
  const double milp_s = tr.total("milp.round", op);
  out["dse.explore_s"] = tr.total("dse.explore", op);
  out["dse.cache_serve_s"] = b.serve_s;
  out["milp.round_s_p50"] = median(rounds);
  out["milp.round_s_total"] = milp_s;
  out["milp.solves"] = static_cast<double>(milp_reg.counter("milp.solves"));
  out["milp.lp_pivots"] =
      static_cast<double>(milp_reg.counter("milp.lp_pivots"));
  out["milp.bnb_nodes"] =
      static_cast<double>(milp_reg.counter("milp.bnb_nodes"));
  out["milp.share"] = op_s > 0.0 ? milp_s / op_s : 0.0;
  out["exec.batches"] = static_cast<double>(b.batches);
  out["exec.batch_size_mean"] =
      b.batches > 0 ? static_cast<double>(b.requests) /
                          static_cast<double>(b.batches)
                    : 0.0;
  out["exec.batch_s"] = b.batch_s;
  const hi::obs::HistogramSummary* sim = batch_reg.histogram("dse.simulate_s");
  out["exec.worker_busy_ratio"] =
      sim != nullptr && b.batch_s > 0.0 ? sim->sum / (kThreads * b.batch_s)
                                        : 0.0;
  const std::vector<double> sims = tr.durations("net.simulate", op);
  const double sim_s = tr.total("net.simulate", op);
  const auto events = static_cast<double>(net_reg.counter("des.events"));
  out["net.simulate_s_p50"] = median(sims);
  out["net.runs"] = static_cast<double>(net_reg.counter("net.runs"));
  out["des.events"] = events;
  out["des.events_per_s"] = sim_s > 0.0 ? events / sim_s : 0.0;
  out["des.heap_highwater"] = net_reg.gauge("des.heap_highwater");
  out["dse.sims_per_feasible"] =
      static_cast<double>(net_reg.counter("net.runs") / kRuns) /
      feasible_designs;
}

// --- certify ----------------------------------------------------------

/// One op: a cold, sound Algorithm 1 at PDRmin 0.9 with a fresh
/// evaluator and a fresh write-through store.
class Certify final : public Workload {
 public:
  explicit Certify(const Settings& s)
      : settings_(dse_settings(s)),
        op_store_((fs::path(s.scratch_dir) / "certify-op.store").string()),
        replay_store_(
            (fs::path(s.scratch_dir) / "certify-replay.store").string()) {}

  void setup_once() override {
    const hi::model::Scenario sc{};
    const std::vector<NetworkConfig> space = sc.feasible_configs();
    const hi::dse::MilpEncoding enc(sc);
    if (space.empty() || enc.achievable_power_levels().empty()) {
      throw std::runtime_error("certify set-up: empty design space");
    }
  }

  void prepare() override {
    Evaluator eval(settings_);
    const ExplorationResult ex =
        hi::dse::run_exhaustive(scenario_, eval, sound_options(kPdrMin));
    reference_ = optimum_of(ex.history, kPdrMin);
    feasible_designs_ = static_cast<double>(ex.history.size());
  }

  OpRecord run_op(int op, Tracer* tr, bool corrupt) override {
    EvaluatorSettings s = settings_;
    if (tr != nullptr) {
      channel_.reset();
      s.channel = counting_factory(s.channel, channel_);
    }
    fs::remove(op_store_);
    OpRecord rec;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tr, "op", op);
      std::optional<hi::store::EvalStore> store;
      {
        ScopedSpan sp(tr, "store.open", op);
        store.emplace(op_store_);
      }
      Evaluator eval(s);
      {
        ScopedSpan sp(tr, "store.preload", op);
        (void)hi::store::warm_start(eval, *store);
      }
      {
        ScopedSpan sp(tr, "dse.explore", op);
        last_ = hi::dse::run_algorithm1(scenario_, eval,
                                        sound_options(kPdrMin));
      }
      ScopedSpan sp(tr, "store.sync", op);
      store->sync();
    }
    rec.seconds = seconds_since(t0);
    fs::remove(op_store_);
    rec.counts = counts_of(last_.metrics);
    check_optimum(rec.error, last_, reference_, corrupt);
    return rec;
  }

  std::string replay(int op, Tracer& tr, LayerValues& out) override {
    const Counts want = counts_of(last_.metrics);
    std::string err;
    ScopedSpan root(&tr, "replay", op);
    hi::obs::MetricsRegistry milp_reg, batch_reg, net_reg;
    const auto rounds =
        replay_milp(scenario_, last_.iterations, milp_reg, tr, op);
    expect_history(err, rounds, last_);

    EvaluatorSettings bs = settings_;
    bs.metrics = &batch_reg;
    Evaluator beval(bs);
    const BatchReplay b = replay_batches(beval, rounds, tr, op);
    const std::vector<hi::dse::Evaluation> sims =
        replay_simulations(settings_, b.fresh, net_reg, tr, op);
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const hi::dse::Evaluation& ev = beval.evaluate(b.fresh[i]);
      if (bits(ev.pdr) != bits(sims[i].pdr) ||
          bits(ev.power_mw) != bits(sims[i].power_mw)) {
        add_error(err, "simulate_uncached differs from the batch result");
        break;
      }
    }

    // Write path: the fresh designs go through put, then one sync.
    fs::remove(replay_store_);
    {
      hi::store::EvalStore store(replay_store_);
      const hi::store::Digest fp =
          hi::store::settings_fingerprint(settings_, store.channel_tag());
      for (const NetworkConfig& cfg : b.fresh) {
        const hi::dse::Evaluation& ev = beval.evaluate(cfg);
        ScopedSpan sp(&tr, "store.put", op);
        store.put(fp, cfg, ev);
      }
      ScopedSpan sp(&tr, "store.sync", op);
      store.sync();
    }
    out["store.bytes_written"] =
        static_cast<double>(fs::file_size(replay_store_));
    fs::remove(replay_store_);

    const hi::obs::Snapshot ms = milp_reg.snapshot();
    const hi::obs::Snapshot bsnap = batch_reg.snapshot();
    const hi::obs::Snapshot ns = net_reg.snapshot();
    expect_replay_counts(err, ms, bsnap, ns, want);

    put_dse_layers(out, tr, op, ms, bsnap, ns, b, feasible_designs_);
    out["dse.designs_visited"] = static_cast<double>(last_.history.size());
    put_channel_stats(channel_, out);
    out["store.open_s"] = tr.total("store.open", op);
    out["store.preload_s"] = tr.total("store.preload", op);
    out["store.put_s"] = tr.total("store.put", op);
    out["store.sync_s"] = tr.durations("store.sync", op).front();  // the op's
    return err;
  }

 private:
  static constexpr double kPdrMin = 0.9;
  const hi::model::Scenario scenario_{};
  EvaluatorSettings settings_;
  std::string op_store_;
  std::string replay_store_;
  Optimum reference_;
  double feasible_designs_ = 1.0;
  ExplorationResult last_;
  ChannelStats channel_;
};

// --- requery ----------------------------------------------------------

/// One op: a fresh evaluator warm-started from the open store, then a
/// sound Algorithm 1 at every rung of the Fig. 3 PDRmin ladder.
class Requery final : public Workload {
 public:
  explicit Requery(const Settings& s)
      : settings_(dse_settings(s)),
        store_path_((fs::path(s.scratch_dir) / "requery.store").string()) {}

  ~Requery() override {
    store_.reset();
    std::error_code ec;
    fs::remove(store_path_, ec);
  }
  Requery(const Requery&) = delete;
  Requery& operator=(const Requery&) = delete;

  /// Opens and recovers the store prepare() filled.
  void setup_once() override {
    const hi::store::EvalStore store(store_path_);
    if (store.eval_count() != expected_records_) {
      throw std::runtime_error("requery set-up: store lost records");
    }
  }

  void prepare() override {
    fs::remove(store_path_);
    {
      hi::store::EvalStore store(store_path_);
      Evaluator eval(settings_);
      (void)hi::store::warm_start(eval, store);
      const ExplorationResult ex =
          hi::dse::run_exhaustive(scenario_, eval, sound_options(0.0));
      store.sync();
      for (const double p : kRungs) {
        references_.push_back(optimum_of(ex.history, p));
      }
      expected_records_ = store.eval_count();
    }
    store_.emplace(store_path_);
  }

  OpRecord run_op(int op, Tracer* tr, bool corrupt) override {
    EvaluatorSettings s = settings_;
    if (tr != nullptr) {
      channel_.reset();
      s.channel = counting_factory(s.channel, channel_);
    }
    last_.clear();
    OpRecord rec;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tr, "op", op);
      Evaluator eval(s);
      {
        ScopedSpan sp(tr, "store.preload", op);
        (void)hi::store::warm_start(eval, *store_);
      }
      for (const double p : kRungs) {
        ScopedSpan sp(tr, "dse.explore", op);
        last_.push_back(
            hi::dse::run_algorithm1(scenario_, eval, sound_options(p)));
      }
    }
    rec.seconds = seconds_since(t0);
    for (std::size_t i = 0; i < last_.size(); ++i) {
      rec.counts += counts_of(last_[i].metrics);
      check_optimum(rec.error, last_[i], references_[i], corrupt && i == 0);
    }
    expect_eq(rec.error, "net.runs", rec.counts.net_runs, std::uint64_t{0});
    expect_eq(rec.error, "des.events", rec.counts.des_events,
              std::uint64_t{0});
    return rec;
  }

  std::string replay(int op, Tracer& tr, LayerValues& out) override {
    Counts want;
    for (const ExplorationResult& r : last_) want += counts_of(r.metrics);
    std::string err;
    ScopedSpan root(&tr, "replay", op);
    hi::obs::MetricsRegistry milp_reg, batch_reg, net_reg;
    std::optional<hi::store::EvalStore> store;
    {
      ScopedSpan sp(&tr, "store.open", op);
      store.emplace(store_path_, hi::store::StoreOptions{.read_only = true});
    }
    EvaluatorSettings bs = settings_;
    bs.metrics = &batch_reg;
    Evaluator beval(bs);
    {
      ScopedSpan sp(&tr, "store.preload", op);
      (void)hi::store::warm_start(beval, *store);
    }
    BatchReplay b;
    std::uint64_t visited = 0;
    for (const ExplorationResult& r : last_) {
      const auto rounds = replay_milp(scenario_, r.iterations, milp_reg, tr, op);
      expect_history(err, rounds, r);
      const BatchReplay rb = replay_batches(beval, rounds, tr, op);
      b.batches += rb.batches;
      b.requests += rb.requests;
      b.batch_s += rb.batch_s;
      b.serve_s += rb.serve_s;
      b.fresh.insert(b.fresh.end(), rb.fresh.begin(), rb.fresh.end());
      visited += r.history.size();
    }
    (void)replay_simulations(settings_, b.fresh, net_reg, tr, op);

    const hi::obs::Snapshot ms = milp_reg.snapshot();
    const hi::obs::Snapshot bsnap = batch_reg.snapshot();
    const hi::obs::Snapshot ns = net_reg.snapshot();
    expect_replay_counts(err, ms, bsnap, ns, want);

    put_dse_layers(out, tr, op, ms, bsnap, ns, b,
                   static_cast<double>(expected_records_));
    out["dse.designs_visited"] = static_cast<double>(visited);
    put_channel_stats(channel_, out);
    out["store.open_s"] = tr.total("store.open", op);
    out["store.preload_s"] = tr.durations("store.preload", op).front();  // the op's
    return err;
  }

 private:
  static constexpr double kRungs[] = {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99};
  const hi::model::Scenario scenario_{};
  EvaluatorSettings settings_;
  std::string store_path_;
  std::size_t expected_records_ = 0;
  std::optional<hi::store::EvalStore> store_;
  std::vector<Optimum> references_;
  std::vector<ExplorationResult> last_;
  ChannelStats channel_;
};

// --- crowd ------------------------------------------------------------

/// One op: a serial crowd::sweep over M in {1, 2, 4, 8} without a store.
class Crowd final : public Workload {
 public:
  explicit Crowd(const Settings& s) {
    const hi::model::Scenario paper{};
    // Star / CSMA on chest, hip, foot, wrist and one more, Tx level 2.
    base_.cfg = paper.make_config(hi::model::Topology::from_mask(0xAB), 2,
                                  hi::model::MacProtocol::kCsma,
                                  hi::model::RoutingProtocol::kStar);
    base_.bodies = kBodies.back();
    base_.spacing_m = 0.5;
    json_ = hi::store::crowd_scenario_to_json(base_);
    sim_.duration_s = s.tsim_s > 0.0 ? s.tsim_s : kCrowdTsim;
    sim_.seed = s.seed;
  }

  void setup_once() override {
    std::string why;
    const std::optional<hi::model::CrowdScenario> sc =
        hi::store::crowd_scenario_from_json(json_, &why);
    if (!sc || *sc != base_ ||
        sc->positions().size() != static_cast<std::size_t>(base_.bodies)) {
      throw std::runtime_error("crowd set-up: scenario decode failed " + why);
    }
  }

  void prepare() override {
    m1_ = hi::net::simulate_averaged(base_.cfg, sim_, kRuns);
  }

  OpRecord run_op(int op, Tracer* tr, bool corrupt) override {
    hi::obs::MetricsRegistry reg;
    hi::crowd::SweepOptions so;
    so.bodies = kBodies;
    so.runs = kRuns;
    so.metrics = &reg;
    OpRecord rec;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tr, "op", op);
      last_ = hi::crowd::sweep(base_, sim_, so);
    }
    rec.seconds = seconds_since(t0);
    last_metrics_ = reg.snapshot();
    rec.counts = counts_of(last_metrics_);
    rec.counts.sims = last_metrics_.counter("crowd.simulations");

    std::string& err = rec.error;
    expect_eq(err, "points", last_.points.size(), kBodies.size());
    if (last_.points.size() != kBodies.size()) return rec;
    hi::dse::Evaluation m1 = last_.points.front().eval;
    if (corrupt) m1.pdr = std::bit_cast<double>(bits(m1.pdr) ^ 1);
    expect_eq(err, "M=1 pdr bits", bits(m1.pdr), bits(m1_.pdr));
    expect_eq(err, "M=1 power bits", bits(m1.power_mw),
              bits(m1_.worst_power_mw));
    expect_eq(err, "M=1 events", m1.detail.events, m1_.events);
    if (first_.points.empty()) {
      first_ = last_;
      return rec;
    }
    for (std::size_t i = 0; i < kBodies.size(); ++i) {
      const hi::dse::Evaluation& a = last_.points[i].eval;
      const hi::dse::Evaluation& b = first_.points[i].eval;
      if (bits(a.pdr) != bits(b.pdr) || bits(a.power_mw) != bits(b.power_mw) ||
          a.detail.events != b.detail.events) {
        add_error(err, "sweep differs from the first op at M=" +
                           std::to_string(kBodies[i]));
      }
    }
    return rec;
  }

  std::string replay(int op, Tracer& tr, LayerValues& out) override {
    std::string err;
    ScopedSpan root(&tr, "replay", op);
    hi::obs::MetricsRegistry reg;
    channel_.reset();
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < kBodies.size(); ++i) {
      const int m = kBodies[i];
      const hi::model::CrowdScenario sc = at(m);
      hi::RunningStats pdr, power;
      {
        ScopedSpan point(&tr, "crowd.point", op);
        for (int r = 0; r < kRuns; ++r) {
          hi::net::SimParams rp = run_params(r);
          rp.metrics = &reg;
          std::unique_ptr<hi::channel::ChannelModel> ch;
          {
            ScopedSpan sp(&tr, "crowd.channel_build", op);
            ch = hi::crowd::make_crowd_channel_for(sc, channel_seed(r));
          }
          CountingChannel counted(std::move(ch), channel_);
          ScopedSpan sp(&tr, "crowd.simulate", op);
          const hi::crowd::CrowdResult one =
              hi::crowd::simulate_crowd(sc, counted, rp);
          pdr.add(one.summary.pdr);
          power.add(one.summary.worst_power_mw);
          events += one.summary.events;
        }
      }
      const std::string tag = ".m" + std::to_string(m);
      out["crowd.point_s" + tag] = tr.durations("crowd.point", op).back();
      const std::vector<double> builds =
          tr.durations("crowd.channel_build", op);
      double build = 0.0;
      for (std::size_t k = builds.size() - kRuns; k < builds.size(); ++k) {
        build += builds[k];
      }
      out["crowd.channel_build_s" + tag] = build;
      const hi::dse::Evaluation& want = last_.points[i].eval;
      if (bits(pdr.mean()) != bits(want.pdr) ||
          bits(power.mean()) != bits(want.power_mw)) {
        add_error(err, "decorated replay differs from the sweep at M=" +
                           std::to_string(m));
      }
    }
    const hi::obs::Snapshot rs = reg.snapshot();
    expect_eq(err, "replay des.events", rs.counter("des.events"),
              last_metrics_.counter("des.events"));
    expect_eq(err, "replay events sum", events,
              last_metrics_.counter("des.events"));
    expect_eq(err, "replay net.runs", rs.counter("net.runs"),
              last_metrics_.counter("net.runs"));

    const double sim_s = tr.total("crowd.simulate", op);
    const auto ev = static_cast<double>(rs.counter("des.events"));
    out["des.events"] = ev;
    out["des.events_per_s"] = sim_s > 0.0 ? ev / sim_s : 0.0;
    if (heap_highwater_ < 0.0) heap_highwater_ = sweep_heap_highwater();
    out["des.heap_highwater"] = heap_highwater_;
    out["net.runs"] = static_cast<double>(rs.counter("net.runs"));
    const auto offered =
        static_cast<double>(last_metrics_.counter("net.crowd_cross_offered"));
    out["crowd.cross_wasted_ratio"] =
        offered > 0.0 ? static_cast<double>(last_metrics_.counter(
                            "net.crowd_cross_below_sensitivity")) /
                            offered
                      : 0.0;
    put_channel_stats(channel_, out);
    return err;
  }

 private:
  /// The sweep's point at `m` bodies (grid placement).
  [[nodiscard]] hi::model::CrowdScenario at(int m) const {
    hi::model::CrowdScenario sc = base_;
    sc.bodies = m;
    return sc;
  }

  // Per-run seeds exactly as simulate_crowd_averaged derives them.
  [[nodiscard]] hi::net::SimParams run_params(int r) const {
    hi::net::SimParams rp = sim_;
    rp.seed = hi::Rng(sim_.seed).fork(static_cast<std::uint64_t>(r)).next_u64();
    return rp;
  }
  [[nodiscard]] std::uint64_t channel_seed(int r) const {
    const hi::Rng root(sim_.channel_seed != 0 ? sim_.channel_seed : sim_.seed);
    return root.fork(static_cast<std::uint64_t>(r)).next_u64() ^ 0xC0FFEE;
  }

  /// Keeps the kernel's heap high-water mark from each run's summary
  /// record.  The runs feeding it are serial.
  class HeapHighWater final : public hi::obs::TraceSink {
   public:
    void on_event(const hi::obs::TraceEvent& e) override {
      if (e.kind == hi::obs::TraceKind::kKernel) max_ = std::max(max_, e.y);
    }
    double max_ = 0.0;
  };

  /// The kernel's pending-event high-water mark over every run of the
  /// sweep.  simulate_crowd reports it only through a run trace, whose
  /// per-event records would distort the replay's spans, so it is
  /// measured once, untimed, in a pass of its own.
  [[nodiscard]] double sweep_heap_highwater() const {
    HeapHighWater sink;
    const hi::obs::RunTrace trace(&sink);
    for (const int m : kBodies) {
      const hi::model::CrowdScenario sc = at(m);
      for (int r = 0; r < kRuns; ++r) {
        hi::net::SimParams rp = run_params(r);
        rp.trace = &trace;
        auto ch = hi::crowd::make_crowd_channel_for(sc, channel_seed(r));
        (void)hi::crowd::simulate_crowd(sc, *ch, rp);
      }
    }
    return sink.max_;
  }

  inline static const std::vector<int> kBodies{1, 2, 4, 8};
  hi::model::CrowdScenario base_;
  std::string json_;
  hi::net::SimParams sim_;
  hi::net::SimResult m1_;
  hi::crowd::SweepResult first_;
  hi::crowd::SweepResult last_;
  hi::obs::Snapshot last_metrics_;
  double heap_highwater_ = -1.0;  ///< < 0 until first measured
  ChannelStats channel_;
};

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Settings& s) {
  if (name == "certify") return std::make_unique<Certify>(s);
  if (name == "requery") return std::make_unique<Requery>(s);
  if (name == "crowd") return std::make_unique<Crowd>(s);
  return nullptr;
}

}  // namespace e2e
