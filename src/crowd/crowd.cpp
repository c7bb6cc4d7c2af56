#include "crowd/crowd.hpp"

#include <algorithm>
#include <future>
#include <limits>
#include <numeric>
#include <utility>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "exec/thread_pool.hpp"
#include "net/node_stack.hpp"
#include "store/crowd_codec.hpp"

namespace hi::crowd {

namespace {

/// Canonical body order: ranks sorted by (y, x), input index breaking
/// ties.  order[rank] = input placement index.  Everything the RNG or
/// the channel sees is keyed by rank, so relabeling the placement list
/// cannot change any body's simulated bits.
std::vector<int> canonical_order(
    const std::vector<model::BodyPlacement>& pos) {
  std::vector<int> order(pos.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&pos](int a, int b) {
    const auto& pa = pos[static_cast<std::size_t>(a)];
    const auto& pb = pos[static_cast<std::size_t>(b)];
    if (pa.y_m != pb.y_m) return pa.y_m < pb.y_m;
    return pa.x_m < pb.x_m;
  });
  return order;
}

/// `base` re-targeted at `bodies` bodies.  An explicit placement list
/// must cover the largest swept M; smaller points take its prefix.
model::CrowdScenario scenario_at(const model::CrowdScenario& base,
                                 int bodies) {
  model::CrowdScenario sc = base;
  sc.bodies = bodies;
  if (!base.placement.empty()) {
    HI_REQUIRE(base.placement.size() >= static_cast<std::size_t>(bodies),
               "crowd sweep: explicit placement has "
                   << base.placement.size() << " entries, point needs "
                   << bodies);
    sc.placement.assign(base.placement.begin(),
                        base.placement.begin() + bodies);
  }
  return sc;
}

}  // namespace

std::unique_ptr<channel::CrowdChannel> make_crowd_channel_for(
    const model::CrowdScenario& sc, std::uint64_t seed) {
  const std::vector<model::BodyPlacement> pos = sc.positions();
  const std::vector<int> order = canonical_order(pos);
  std::vector<channel::BodyPose> poses;
  poses.reserve(pos.size());
  for (int idx : order) {
    const model::BodyPlacement& p = pos[static_cast<std::size_t>(idx)];
    poses.push_back(channel::BodyPose{p.x_m, p.y_m});
  }
  channel::InterBodyParams inter;
  inter.pl0_db = sc.inter.pl0_db;
  inter.d0_m = sc.inter.d0_m;
  inter.exponent = sc.inter.exponent;
  inter.shadow_db = sc.inter.shadow_db;
  inter.sigma_db = sc.inter.sigma_db;
  inter.tau_s = sc.inter.tau_s;
  inter.min_distance_m = sc.inter.min_distance_m;
  return channel::make_crowd_channel(seed, std::move(poses), {}, inter);
}

CrowdResult simulate_crowd(const model::CrowdScenario& sc,
                           channel::ChannelModel& channel,
                           const net::SimParams& params) {
  sc.validate();
  const int bodies = sc.bodies;
  const std::vector<int> order = canonical_order(sc.positions());
  net::detail::BodiesRun run =
      net::detail::run_bodies(sc.cfg, channel, params, bodies);

  // Per body first (canonical order, so every accumulator below is
  // permutation-invariant), then the crowd aggregate.
  CrowdResult out;
  out.per_body.resize(static_cast<std::size_t>(bodies));
  out.summary.nodes.resize(static_cast<std::size_t>(bodies));
  RunningStats body_pdr, body_mean_power;
  double worst = 0.0;
  double min_pdr = std::numeric_limits<double>::infinity();
  for (int rank = 0; rank < bodies; ++rank) {
    const auto input =
        static_cast<std::size_t>(order[static_cast<std::size_t>(rank)]);
    net::SimResult& br = run.bodies[static_cast<std::size_t>(rank)];
    body_pdr.add(br.pdr);
    body_mean_power.add(br.mean_power_mw);
    worst = std::max(worst, br.worst_power_mw);
    min_pdr = std::min(min_pdr, br.pdr);

    // One summary row per body: stats summed over the body's nodes.
    net::NodeResult& row = out.summary.nodes[input];
    row.location = static_cast<int>(input);
    row.pdr = br.pdr;
    row.power_mw = br.worst_power_mw;
    for (const net::NodeResult& nr : br.nodes) net::add_node_counts(row, nr);
    out.per_body[input] = std::move(br);
  }

  net::SimResult& s = out.summary;
  s.pdr = body_pdr.mean();
  s.worst_power_mw = worst;
  s.mean_power_mw = body_mean_power.mean();
  s.nlt_s = worst > 0.0 ? sc.cfg.battery_j / mw_to_w(worst) : 0.0;
  s.duration_s = params.duration_s;
  s.medium = run.medium;
  s.events = run.events;
  s.crowd.present = true;
  s.crowd.bodies = bodies;
  s.crowd.min_body_pdr = min_pdr;
  s.crowd.cross_offered = s.medium.cross_offered;
  s.crowd.cross_below_sensitivity = s.medium.cross_below_sensitivity;
  s.crowd.foreign_heard = run.crowd.foreign_heard;
  s.crowd.foreign_decoded = run.crowd.foreign_decoded;

  if (params.metrics != nullptr) {
    // The engine flushed the des.* / net.* set; these are the crowd's own.
    obs::MetricsRegistry& m = *params.metrics;
    m.counter("net.crowd_runs").add(1);
    m.counter("net.crowd_bodies").add(static_cast<std::uint64_t>(bodies));
    m.counter("net.crowd_cross_offered").add(s.crowd.cross_offered);
    m.counter("net.crowd_cross_below_sensitivity")
        .add(s.crowd.cross_below_sensitivity);
    m.counter("net.crowd_foreign_heard").add(s.crowd.foreign_heard);
    m.counter("net.crowd_foreign_decoded").add(s.crowd.foreign_decoded);
  }
  return out;
}

CrowdResult simulate_crowd_averaged(const model::CrowdScenario& sc,
                                    const net::SimParams& params, int runs) {
  CrowdResult first, later;
  RunningStats min_pdr;
  net::detail::replicate(
      params, runs, sc.cfg.battery_j,
      [&](int r, const net::SimParams& run_params,
          std::uint64_t channel_seed) -> net::SimResult& {
        CrowdResult& one = r == 0 ? first : later;
        one = simulate_crowd(sc, *make_crowd_channel_for(sc, channel_seed),
                             run_params);
        const net::CrowdSummary& c = one.summary.crowd;
        min_pdr.add(c.min_body_pdr);
        if (r > 0) {  // run 0's coexistence counters seed the totals
          net::CrowdSummary& total = first.summary.crowd;
          total.cross_offered += c.cross_offered;
          total.cross_below_sensitivity += c.cross_below_sensitivity;
          total.foreign_heard += c.foreign_heard;
          total.foreign_decoded += c.foreign_decoded;
        }
        return one.summary;
      });
  first.summary.crowd.min_body_pdr = min_pdr.mean();
  return first;
}

dse::Evaluation to_evaluation(const CrowdResult& cr) {
  dse::Evaluation ev;
  ev.detail = cr.summary;
  ev.pdr = cr.summary.pdr;
  ev.power_mw = cr.summary.worst_power_mw;
  ev.nlt_s = cr.summary.nlt_s;
  return ev;
}

SweepResult sweep(const model::CrowdScenario& base, const net::SimParams& sim,
                  const SweepOptions& opt) {
  HI_REQUIRE(!opt.bodies.empty(), "crowd sweep: empty body-count list");
  HI_REQUIRE(opt.threads >= 0,
             "crowd sweep: threads must be >= 0, got " << opt.threads);
  const std::size_t count = opt.bodies.size();
  std::vector<model::CrowdScenario> points;
  std::vector<store::Digest> fps;
  points.reserve(count);
  fps.reserve(count);
  for (int m : opt.bodies) {
    points.push_back(scenario_at(base, m));
    points.back().validate();
    fps.push_back(store::crowd_point_fingerprint(points.back(), sim,
                                                 opt.runs));
  }

  SweepResult out;
  out.points.resize(count);
  // Probe the store first so only genuine misses pay for a worker slot.
  std::vector<bool> need(count, true);
  for (std::size_t i = 0; i < count; ++i) {
    out.points[i].bodies = opt.bodies[i];
    if (opt.store == nullptr) continue;
    if (const dse::Evaluation* hit =
            opt.store->find(fps[i], points[i].cfg)) {
      out.points[i].from_store = true;
      out.points[i].eval = *hit;
      need[i] = false;
    }
  }

  net::SimParams sp = sim;
  if (opt.metrics != nullptr) sp.metrics = opt.metrics;
  const auto compute = [&](std::size_t i) {
    return to_evaluation(simulate_crowd_averaged(points[i], sp, opt.runs));
  };
  if (opt.threads > 0) {
    // Every point's randomness derives from the sweep roots alone, so
    // the fan-out is thread-count invariant (and tested to be).
    exec::ThreadPool pool(opt.threads);
    std::vector<std::future<dse::Evaluation>> futs(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (need[i]) futs[i] = pool.submit([&compute, i] { return compute(i); });
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (need[i]) out.points[i].eval = futs[i].get();
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      if (need[i]) out.points[i].eval = compute(i);
    }
  }

  // Commit in sweep order: write-through, honest accounting, progress.
  for (std::size_t i = 0; i < count; ++i) {
    SweepPoint& p = out.points[i];
    if (p.from_store) {
      ++out.store_hits;
    } else {
      ++out.simulations;
      if (opt.store != nullptr) {
        opt.store->put(fps[i], points[i].cfg, p.eval);
      }
    }
    if (opt.metrics != nullptr) {
      obs::MetricsRegistry& m = *opt.metrics;
      m.counter("crowd.points").add(1);
      if (p.from_store) {
        m.counter("crowd.store_hits").add(1);
        // Same resume-accounting channel the DSE layer uses, so "zero
        // re-simulation" is asserted the same way everywhere.
        m.counter("dse.store_hits").add(1);
      } else {
        m.counter("crowd.simulations").add(1);
      }
    }
    if (opt.progress) opt.progress(p);
  }
  if (opt.store != nullptr) opt.store->sync();
  return out;
}

}  // namespace hi::crowd
