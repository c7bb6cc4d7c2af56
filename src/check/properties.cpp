#include "check/properties.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <map>
#include <sstream>
#include <utility>

#include "check/invariants.hpp"
#include "check/lp_oracle.hpp"
#include "check/milp_oracle.hpp"
#include "channel/channel.hpp"
#include "crowd/crowd.hpp"
#include "dse/explorer.hpp"
#include "dse/milp_encoding.hpp"
#include "lp/simplex.hpp"
#include "milp/solver.hpp"
#include "model/power.hpp"
#include "pareto/sweep.hpp"
#include "store/serialize.hpp"

namespace hi::check {

namespace {

/// Tolerance granted to the floating-point solvers against the exact
/// oracles.  The instances are tiny and dyadic, so this is generous.
constexpr double kSolverTol = 1e-6;

template <typename... Parts>
void fail(std::vector<std::string>& out, Parts&&... parts) {
  std::ostringstream oss;
  (oss << ... << parts);
  out.push_back(oss.str());
}

/// A double exactly representable as k/16 with k uniform in
/// [16*lo, 16*hi] — Rational::from_double round-trips it exactly.
double dyadic16(Rng& rng, double lo, double hi) {
  const auto klo = static_cast<std::int64_t>(std::lround(lo * 16.0));
  const auto khi = static_cast<std::int64_t>(std::lround(hi * 16.0));
  return static_cast<double>(rng.uniform_int(klo, khi)) / 16.0;
}

lp::Sense random_sense(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.2) return lp::Sense::kEqual;
  return u < 0.6 ? lp::Sense::kLessEqual : lp::Sense::kGreaterEqual;
}

/// Sparse row over `nv` variables with 1..nv distinct terms.
std::vector<lp::Term> random_row(Rng& rng, int nv) {
  std::vector<int> vars(static_cast<std::size_t>(nv));
  for (int v = 0; v < nv; ++v) vars[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = vars.size(); i > 1; --i) {
    std::swap(vars[i - 1], vars[rng.uniform_index(i)]);
  }
  const int terms = static_cast<int>(rng.uniform_int(1, nv));
  std::vector<lp::Term> row;
  for (int t = 0; t < terms; ++t) {
    double c = dyadic16(rng, -2.0, 2.0);
    if (c == 0.0) c = 1.0;  // keep every term meaningful
    row.push_back(lp::Term{vars[static_cast<std::size_t>(t)], c});
  }
  return row;
}

std::vector<std::int64_t> rounded_assignment(const std::vector<int>& vars,
                                             const std::vector<double>& x) {
  std::vector<std::int64_t> a;
  a.reserve(vars.size());
  for (int v : vars) {
    a.push_back(std::llround(x[static_cast<std::size_t>(v)]));
  }
  return a;
}

/// A random tightening at `cut` of a variable whose box ends at cur_hi:
/// a half-box, a point, or a box that is empty.
std::pair<double, double> random_tightening(Rng& rng, double cur_hi,
                                            double cut) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return {cut, lp::kInf};
    case 1:
      return {-lp::kInf, cut};
    case 2:
      return {cut, cut};
    default:
      return {cur_hi + 1.0 / 16.0, lp::kInf};
  }
}

}  // namespace

lp::Problem random_bounded_lp(Rng& rng, int max_vars) {
  lp::Problem p;
  const int nv = static_cast<int>(rng.uniform_int(2, max_vars));
  for (int v = 0; v < nv; ++v) {
    const double lo = dyadic16(rng, -3.0, 0.0);
    const double width = dyadic16(rng, 0.0, 3.0);  // 0 => fixed variable
    p.add_variable(lo, lo + width, dyadic16(rng, -2.0, 2.0));
  }
  p.set_objective(rng.bernoulli(0.5) ? lp::Objective::kMinimize
                                     : lp::Objective::kMaximize);
  const int rows = static_cast<int>(rng.uniform_int(1, nv + 1));
  for (int r = 0; r < rows; ++r) {
    p.add_constraint(random_row(rng, nv), random_sense(rng),
                     dyadic16(rng, -3.0, 3.0));
  }
  return p;
}

milp::Model random_small_milp(Rng& rng) {
  milp::Model m;
  const int nb = static_cast<int>(rng.uniform_int(2, 4));
  for (int v = 0; v < nb; ++v) {
    m.add_binary(dyadic16(rng, -2.0, 2.0));
  }
  if (rng.bernoulli(0.5)) {
    const int ni = static_cast<int>(rng.uniform_int(1, 2));
    for (int v = 0; v < ni; ++v) {
      const auto lo = static_cast<double>(rng.uniform_int(-2, 0));
      const auto up = lo + static_cast<double>(rng.uniform_int(1, 4));
      m.add_integer(lo, up, dyadic16(rng, -2.0, 2.0));
    }
  }
  if (rng.bernoulli(0.5)) {
    const int nc = static_cast<int>(rng.uniform_int(1, 2));
    for (int v = 0; v < nc; ++v) {
      const double lo = dyadic16(rng, -2.0, 0.0);
      m.add_continuous(lo, lo + dyadic16(rng, 0.5, 3.0),
                       dyadic16(rng, -2.0, 2.0));
    }
  }
  m.set_objective(rng.bernoulli(0.5) ? lp::Objective::kMinimize
                                     : lp::Objective::kMaximize);
  const int nv = m.num_variables();
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < rows; ++r) {
    m.add_constraint(random_row(rng, nv), random_sense(rng),
                     dyadic16(rng, -4.0, 6.0));
  }
  return m;
}

namespace {

/// One simplex verdict against the exact one: same status, matching
/// objective.
void compare_to_oracle(std::vector<std::string>& out, const std::string& what,
                       const lp::Solution& sol, const LpOracleResult& oracle) {
  if (oracle.status == OracleStatus::kInfeasible) {
    if (sol.status != lp::Status::kInfeasible) {
      fail(out, what, ": oracle says infeasible but simplex returned ",
           lp::to_string(sol.status));
    }
    return;
  }
  if (sol.status != lp::Status::kOptimal) {
    fail(out, what, ": oracle optimum ", oracle.objective.to_string(),
         " but simplex returned ", lp::to_string(sol.status));
    return;
  }
  const double exact = oracle.objective.to_double();
  if (std::fabs(sol.objective - exact) > kSolverTol) {
    fail(out, what, ": simplex objective ", sol.objective,
         " differs from exact optimum ", oracle.objective.to_string(), " = ",
         exact);
  }
}

}  // namespace

std::vector<std::string> check_lp_against_oracle(const lp::Problem& p) {
  std::vector<std::string> out;
  const lp::Solution sol = lp::solve_simplex(p);
  compare_to_oracle(out, "simplex", sol, solve_lp_exact(p));
  if (!out.empty() || sol.status != lp::Status::kOptimal) {
    return out;
  }
  if (!p.is_feasible(sol.x, kSolverTol)) {
    fail(out, "simplex primal point violates the constraints");
  }
  if (std::fabs(p.objective_value(sol.x) - sol.objective) > kSolverTol) {
    fail(out, "simplex objective ", sol.objective,
         " does not match its own primal point value ",
         p.objective_value(sol.x));
  }
  return out;
}

std::vector<std::string> check_warm_start_against_oracle(const lp::Problem& p,
                                                         Rng& rng) {
  std::vector<std::string> out;
  const int nv = p.num_variables();
  // The oracle keeps the boxes; the solver's twin has the same feasible
  // set with some variables free or upper-bounded only and their boxes
  // restated as rows.
  lp::Problem box = p;
  lp::Problem twin;
  twin.set_objective(p.objective());
  for (int v = 0; v < nv; ++v) {
    const lp::Variable& var = p.variable(v);
    const auto kind = rng.uniform_int(0, 2);  // 0 boxed, 1 free, 2 mirrored
    twin.add_variable(kind == 0 ? var.lower : -lp::kInf,
                      kind == 1 ? lp::kInf : var.upper, var.cost);
  }
  for (int r = 0; r < p.num_constraints(); ++r) {
    const lp::Constraint& c = p.constraint(r);
    twin.add_constraint(c.terms, c.sense, c.rhs);
  }
  for (int v = 0; v < nv; ++v) {
    if (!std::isfinite(twin.variable(v).lower)) {
      twin.add_constraint({{v, 1.0}}, lp::Sense::kGreaterEqual,
                          p.variable(v).lower);
    }
    if (!std::isfinite(twin.variable(v).upper)) {
      twin.add_constraint({{v, 1.0}}, lp::Sense::kLessEqual,
                          p.variable(v).upper);
    }
  }
  lp::Simplex warm(twin);
  lp::Solution sol = warm.solve();
  compare_to_oracle(out, "root", sol, solve_lp_exact(box));
  for (int step = 0; step < 3 && sol.status == lp::Status::kOptimal; ++step) {
    // Tighten one variable within its current box: a half-box, a point,
    // or a box that is empty.
    const int v = static_cast<int>(rng.uniform_index(
        static_cast<std::size_t>(nv)));
    const double cur_lo = box.variable(v).lower;
    const double cur_hi = box.variable(v).upper;
    const double cut = dyadic16(rng, cur_lo, cur_hi);
    const auto [lower, upper] = random_tightening(rng, cur_hi, cut);
    std::ostringstream what;
    what << "tightening " << step << " (x" << v << " to [" << lower << ", "
         << upper << "])";
    warm.tighten(v, lower, upper);
    sol = warm.solve();
    const double lo = std::max(lower, cur_lo);
    const double hi = std::min(upper, cur_hi);
    if (lo > hi) {
      if (sol.status != lp::Status::kInfeasible) {
        fail(out, what.str(), ": empty box but the warm simplex returned ",
             lp::to_string(sol.status));
      }
      break;
    }
    box.set_bounds(v, lo, hi);
    twin.set_bounds(v, std::max(lower, twin.variable(v).lower),
                    std::min(upper, twin.variable(v).upper));
    const LpOracleResult oracle = solve_lp_exact(box);
    compare_to_oracle(out, what.str() + " warm", sol, oracle);
    compare_to_oracle(out, what.str() + " cold", lp::solve_simplex(twin),
                      oracle);
    if (sol.status == lp::Status::kOptimal &&
        !twin.is_feasible(sol.x, kSolverTol)) {
      fail(out, what.str(), ": warm primal point violates the constraints");
    }
  }
  return out;
}

namespace {

/// One branch-and-bound verdict on `m` against the exact one: same
/// status, matching objective, and an integral assignment in the
/// oracle's optimal set.
void compare_to_milp_oracle(std::vector<std::string>& out,
                            const std::string& what, const milp::Model& m,
                            const milp::Solution& sol,
                            const MilpOracleResult& oracle) {
  if (oracle.status == OracleStatus::kInfeasible) {
    if (sol.status != lp::Status::kInfeasible) {
      fail(out, what, ": oracle says infeasible but branch and bound returned ",
           lp::to_string(sol.status));
    }
    return;
  }
  if (sol.status != lp::Status::kOptimal) {
    fail(out, what, ": oracle optimum ", oracle.objective.to_string(),
         " but branch and bound returned ", lp::to_string(sol.status));
    return;
  }
  const double exact = oracle.objective.to_double();
  if (std::fabs(sol.objective - exact) > kSolverTol) {
    fail(out, what, ": objective ", sol.objective,
         " differs from exact optimum ", oracle.objective.to_string(), " = ",
         exact);
  }
  const std::vector<int> ints = m.integral_variables();
  for (int v : ints) {
    const double xv = sol.x[static_cast<std::size_t>(v)];
    if (std::fabs(xv - std::round(xv)) > 1e-5) {
      fail(out, what, ": variable ", v, " = ", xv, " is not integral");
    }
  }
  const std::vector<std::int64_t> a = rounded_assignment(ints, sol.x);
  if (std::find(oracle.optimal_assignments.begin(),
                oracle.optimal_assignments.end(),
                a) == oracle.optimal_assignments.end()) {
    fail(out, what,
         ": the integral assignment is not in the oracle's optimal set (",
         oracle.optimal_assignments.size(), " assignments)");
  }
}

}  // namespace

std::vector<std::string> check_milp_against_oracle(const milp::Model& m) {
  std::vector<std::string> out;
  compare_to_milp_oracle(out, "milp::solve", m, milp::solve(m),
                         solve_milp_exact(m));
  return out;
}

std::vector<std::string> check_milp_warm_against_oracle(const milp::Model& m,
                                                        Rng& rng) {
  std::vector<std::string> out;
  // `box` carries every tightening: the oracle and the cold solves read
  // it, and so would the solver's own cold root.
  milp::Model box = m;
  milp::Solver warm(box);
  milp::Solution sol = warm.solve();
  compare_to_milp_oracle(out, "root", box, sol, solve_milp_exact(box));
  const int nv = box.num_variables();
  for (int step = 0; step < 3 && sol.status == lp::Status::kOptimal; ++step) {
    // Tighten one variable within its current box: a half-box, a point,
    // or a box that is empty.  Integral variables are cut at integers.
    const int v = static_cast<int>(rng.uniform_index(
        static_cast<std::size_t>(nv)));
    const double cur_lo = box.lp().variable(v).lower;
    const double cur_hi = box.lp().variable(v).upper;
    const double cut =
        box.var_type(v) == milp::VarType::kContinuous
            ? dyadic16(rng, cur_lo, cur_hi)
            : static_cast<double>(rng.uniform_int(std::llround(cur_lo),
                                                  std::llround(cur_hi)));
    const auto [lower, upper] = random_tightening(rng, cur_hi, cut);
    std::ostringstream what;
    what << "tightening " << step << " (x" << v << " to [" << lower << ", "
         << upper << "])";
    warm.tighten(v, lower, upper);
    const double lo = std::max(lower, cur_lo);
    const double hi = std::min(upper, cur_hi);
    if (lo > hi) {
      sol = warm.solve();
      if (sol.status != lp::Status::kInfeasible) {
        fail(out, what.str(), ": empty box but the warm solver returned ",
             lp::to_string(sol.status));
      }
      break;
    }
    box.lp().set_bounds(v, lo, hi);
    sol = warm.solve();
    const MilpOracleResult oracle = solve_milp_exact(box);
    compare_to_milp_oracle(out, what.str() + " warm", box, sol, oracle);
    compare_to_milp_oracle(out, what.str() + " cold", box, milp::solve(box),
                           oracle);
  }
  return out;
}

std::vector<std::string> check_milp_levels(const model::Scenario& sc,
                                           int gamma) {
  std::vector<std::string> out;
  // Closed form: the MILP's feasible designs keyed by their protected
  // analytic power, the same sum as the encoding's cell cost.
  std::map<double, std::vector<std::uint64_t>> levels;
  for (const model::NetworkConfig& cfg : sc.feasible_configs()) {
    if (cfg.routing.protocol == model::RoutingProtocol::kStar &&
        !cfg.topology.has(sc.coordinator)) {
      continue;
    }
    levels[model::node_power_mw(cfg) + model::robust_protection_mw(cfg, gamma)]
        .push_back(cfg.design_key());
  }
  dse::MilpEncoding enc(sc, gamma);
  int round = 0;
  for (auto& [level, want] : levels) {
    const dse::MilpRound r = enc.run_milp();
    if (r.status != lp::Status::kOptimal) {
      fail(out, "gamma ", gamma, " round ", round, ": MILP ",
           lp::to_string(r.status), " but ", levels.size() - round,
           " levels remain, the cheapest at ", std::setprecision(17), level,
           " mW");
      return out;
    }
    if (r.power_mw != level) {
      fail(out, "gamma ", gamma, " round ", round, ": power ",
           std::setprecision(17), r.power_mw,
           " mW is not the cheapest remaining level ", level, " mW");
    }
    std::vector<std::uint64_t> got;
    got.reserve(r.candidates.size());
    for (const model::NetworkConfig& cfg : r.candidates) {
      got.push_back(cfg.design_key());
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      fail(out, "gamma ", gamma, " round ", round, ": ", got.size(),
           " candidates, but ", want.size(),
           " designs sit at the level (sets differ)");
    }
    enc.add_power_cut_above(r.power_mw);
    ++round;
  }
  const dse::MilpRound last = enc.run_milp();
  if (last.status != lp::Status::kInfeasible) {
    fail(out, "gamma ", gamma, ": MILP ", lp::to_string(last.status),
         " after all ", levels.size(), " levels were cut");
  }
  return out;
}

namespace {

/// A non-decreasing walk of sample times: the same time again (dt = 0)
/// one step in four, otherwise up to two time constants later.
/// `draws` counts the innovations a fade sampled at every time has used.
struct TimeWalk {
  double t;
  std::size_t draws = 1;  // the first sample's stationary draw

  void step(Rng& rng, double tau_s) {
    if (rng.bernoulli(0.25)) return;
    const double next = t + rng.uniform(0.0, 2.0 * tau_s);
    draws += next > t ? 1 : 0;
    t = next;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::vector<std::string> check_fade_tape(Rng& rng) {
  std::vector<std::string> out;
  const Rng stream{rng.next_u64()};
  // Short tapes, odd lengths included (the stream then holds a spare
  // normal past the tape), so every trajectory runs off the end.
  const auto len = static_cast<std::size_t>(rng.uniform_int(0, 40));
  const std::size_t past_end = len + 8;
  const channel::GaussMarkovParams gm{rng.uniform(0.0, 12.0),
                                      rng.uniform(0.05, 3.0)};

  const channel::NormalTape tape(stream, len);
  channel::GaussMarkovFade plain(gm, stream);
  channel::GaussMarkovFade taped(gm, tape);
  channel::DecayTable decay(gm.tau_s);
  for (TimeWalk w{rng.uniform(0.0, 2.0)}; w.draws <= past_end;
       w.step(rng, gm.tau_s)) {
    const double a = plain.sample_db(w.t, decay);
    const double b = taped.sample_db(w.t, decay);
    if (!same_bits(a, b) || !same_bits(plain.current_db(), taped.current_db())) {
      fail(out, "fade (sigma ", gm.sigma_db, ", tau ", gm.tau_s, ", tape ",
           len, ") differs at draw ", w.draws, ", t ", w.t, ": ", a, " vs ",
           b);
      return out;
    }
  }

  // The body channel: random receiver sets through the batch call, plus
  // one focus link sampled every step in a random orientation, which
  // runs off the end of its tape.
  channel::BodyChannelParams bp;
  bp.tau_s = gm.tau_s;
  channel::BodyChannel plain_ch(channel::calibrated_body_path_loss(), bp,
                                stream);
  channel::BodyChannel taped_ch(channel::calibrated_body_path_loss(), bp,
                                channel::make_body_tapes(stream, len));
  constexpr int kN = channel::kNumLocations;
  const auto fa = static_cast<int>(rng.uniform_index(kN));
  const auto fb = static_cast<int>((fa + 1 + rng.uniform_index(kN - 1)) % kN);
  std::vector<int> locs(kN);
  for (int i = 0; i < kN; ++i) locs[static_cast<std::size_t>(i)] = i;
  double pa[kN], pb[kN];
  for (TimeWalk w{rng.uniform(0.0, 2.0)}; w.draws <= past_end;
       w.step(rng, gm.tau_s)) {
    for (std::size_t i = locs.size(); i > 1; --i) {
      std::swap(locs[i - 1], locs[rng.uniform_index(i)]);
    }
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, kN));
    const auto tx = static_cast<int>(rng.uniform_index(kN));
    plain_ch.path_loss_batch_db(tx, locs.data(), n, w.t, pa);
    taped_ch.path_loss_batch_db(tx, locs.data(), n, w.t, pb);
    for (std::size_t r = 0; r < n; ++r) {
      if (!same_bits(pa[r], pb[r])) {
        fail(out, "body channel batch (tape ", len, ") differs on link ", tx,
             "->", locs[r], ", t ", w.t, ": ", pa[r], " vs ", pb[r]);
        return out;
      }
    }
    const bool flip = rng.bernoulli(0.5);
    const int i = flip ? fb : fa;
    const int j = flip ? fa : fb;
    const double a = plain_ch.path_loss_db(i, j, w.t);
    const double b = taped_ch.path_loss_db(i, j, w.t);
    if (!same_bits(a, b)) {
      fail(out, "body channel (tape ", len, ") differs on link ", i, "->", j,
           " at draw ", w.draws, ", t ", w.t, ": ", a, " vs ", b);
      return out;
    }
  }
  return out;
}

namespace {

/// The Gauss-Markov step written with the plain formula: ρ and the
/// innovation's std-dev recomputed from Δt at every step.
struct ReferenceFade {
  channel::GaussMarkovParams gm;
  Rng rng;
  double last_t = 0.0;
  double delta_db = 0.0;
  bool initialized = false;

  double sample_db(double t) {
    if (!initialized) {
      initialized = true;
      last_t = t;
      delta_db = rng.normal(0.0, gm.sigma_db);
      return delta_db;
    }
    const double dt = t - last_t;
    last_t = t;
    if (dt == 0.0) return delta_db;
    const double rho = std::exp(-dt / gm.tau_s);
    delta_db = rho * delta_db +
               rng.normal(0.0, gm.sigma_db * std::sqrt(1.0 - rho * rho));
    return delta_db;
  }
};

}  // namespace

std::vector<std::string> check_decay_table(Rng& rng) {
  std::vector<std::string> out;
  const double tau = rng.uniform(0.05, 3.0);
  const channel::GaussMarkovParams ga{rng.uniform(0.0, 12.0), tau};
  const channel::GaussMarkovParams gb{rng.uniform(0.0, 12.0), tau};
  const Rng stream_a{rng.next_u64()};
  const Rng stream_b{rng.next_u64()};

  // Δt values are multiples of 2^-10 s and times start on that grid, so
  // every t − t_prev is exact and the table sees exactly these keys.
  constexpr double kTick = 1.0 / 1024.0;
  const auto ticks = [&] { return rng.uniform_int(1, 3 * 1024); };
  std::vector<double> dts;
  for (int k = 0; k < 4; ++k) dts.push_back(kTick * ticks());
  // Two Δt values that share a slot, alternated below.
  const double c0 = kTick * ticks();
  double c1 = c0;
  while (c1 == c0 || channel::DecayTable::slot(c1) !=
                         channel::DecayTable::slot(c0)) {
    c1 = kTick * ticks();
  }

  ReferenceFade ref_a{ga, stream_a};
  ReferenceFade ref_b{gb, stream_b};
  channel::GaussMarkovFade own_a(ga, stream_a), own_b(gb, stream_b);
  channel::GaussMarkovFade shared_a(ga, stream_a), shared_b(gb, stream_b);
  channel::DecayTable table_a(tau), table_b(tau), shared(tau);
  double t = kTick * rng.uniform_int(0, 2048);
  int collide = 0;
  for (int step = 0; step < 400; ++step) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.4) {
      t += (collide ^= 1) != 0 ? c1 : c0;
    } else if (u < 0.8) {
      t += dts[rng.uniform_index(dts.size())];
    }  // else Δt = 0
    // b skips some times, so its Δt spans several of a's steps.
    const bool with_b = rng.bernoulli(0.7);
    const double ra = ref_a.sample_db(t);
    const double oa = own_a.sample_db(t, table_a);
    const double sa = shared_a.sample_db(t, shared);
    if (!same_bits(ra, oa) || !same_bits(oa, sa)) {
      fail(out, "decay table (sigma ", ga.sigma_db, ", tau ", tau,
           ") differs at step ", step, ", t ", t, ": reference ", ra,
           ", own table ", oa, ", shared table ", sa);
      return out;
    }
    if (with_b) {
      const double rb = ref_b.sample_db(t);
      const double ob = own_b.sample_db(t, table_b);
      const double sb = shared_b.sample_db(t, shared);
      if (!same_bits(rb, ob) || !same_bits(ob, sb)) {
        fail(out, "decay table (sigma ", gb.sigma_db, ", tau ", tau,
             ") differs on the second fade at step ", step, ", t ", t,
             ": reference ", rb, ", own table ", ob, ", shared table ", sb);
        return out;
      }
    }
  }
  return out;
}

std::vector<std::string> check_alg1_matches_exhaustive(
    const model::Scenario& sc, dse::Evaluator& eval, double pdr_min) {
  // Nominal is the Γ=0, K=1 case of the one evaluation path.
  return check_robust_alg1_matches_exhaustive(sc, eval, pdr_min,
                                              dse::RobustnessOptions{});
}

std::vector<std::string> check_pdrmin_monotone(
    const model::Scenario& sc, dse::Evaluator& eval,
    const std::vector<double>& pdr_mins) {
  std::vector<std::string> out;
  bool was_infeasible = false;
  double prev_power = 0.0;
  double prev_target = 0.0;
  bool have_prev = false;
  for (const double target : pdr_mins) {
    if (have_prev && target < prev_target) {
      fail(out, "pdr_mins must be ascending");
      return out;
    }
    dse::ExplorationOptions opt;
    opt.pdr_min = target;
    const dse::ExplorationResult res = dse::run_exhaustive(sc, eval, opt);
    if (was_infeasible && res.feasible) {
      fail(out, "feasible at PDRmin ", target,
           " after infeasible at a lower target");
    }
    if (res.feasible) {
      if (have_prev && res.best_power_mw < prev_power - 1e-12) {
        fail(out, "optimal power dropped from ", prev_power, " mW to ",
             res.best_power_mw, " mW when PDRmin rose from ", prev_target,
             " to ", target);
      }
      prev_power = res.best_power_mw;
      prev_target = target;
      have_prev = true;
    } else {
      was_infeasible = true;
    }
  }
  return out;
}

std::vector<std::string> check_thread_determinism(const ScenarioSpec& spec,
                                                  int threads) {
  return check_robust_thread_determinism(spec, threads,
                                         dse::RobustnessOptions{});
}

std::vector<std::string> check_robust_alg1_matches_exhaustive(
    const model::Scenario& sc, dse::Evaluator& eval, double pdr_min,
    const dse::RobustnessOptions& robust) {
  std::vector<std::string> out;
  dse::ExplorationOptions opt;
  opt.pdr_min = pdr_min;
  opt.bound = dse::TerminationBound::kSoundFloor;
  opt.robust = robust;
  const dse::ExplorationResult ex = dse::run_exhaustive(sc, eval, opt);
  eval.reset_counters();  // caches (all realizations) stay; Alg 1 rides them
  const dse::ExplorationResult a1 = dse::run_algorithm1(sc, eval, opt);
  if (ex.feasible != a1.feasible) {
    fail(out, "feasibility disagrees at PDRmin ", pdr_min, ", gamma ",
         robust.gamma, ", K ", robust.realizations, ": exhaustive ",
         ex.feasible, ", algorithm1 ", a1.feasible);
    return out;
  }
  if (ex.feasible) {
    if (a1.best_power_mw != ex.best_power_mw ||
        a1.best.design_key() != ex.best.design_key()) {
      fail(out, "optimum disagrees at PDRmin ", pdr_min,
           ", gamma ", robust.gamma, ", K ", robust.realizations,
           ": exhaustive ", ex.best_power_mw, " mW (", ex.best.label(),
           "), algorithm1 ", a1.best_power_mw, " mW (", a1.best.label(),
           ")");
    }
    if (a1.best_pdr < pdr_min) {
      fail(out, "algorithm1 worst-case PDR ", a1.best_pdr, " misses PDRmin ",
           pdr_min);
    }
    if (a1.best_protection_mw !=
        model::robust_protection_mw(a1.best, robust.gamma)) {
      fail(out, "algorithm1 incumbent protection ", a1.best_protection_mw,
           " mW does not match the closed form for ", a1.best.label());
    }
  }
  if (a1.simulations > ex.simulations) {
    fail(out, "algorithm1 needed ", a1.simulations,
         " simulations, more than exhaustive's ", ex.simulations);
  }
  if (a1.realizations != robust.realizations ||
      ex.realizations != robust.realizations) {
    fail(out, "result realizations (", a1.realizations, ", ",
         ex.realizations, ") do not echo the requested K ",
         robust.realizations);
  }
  return out;
}

std::vector<std::string> check_alg1_matches_ladder(
    const model::Scenario& sc, dse::Evaluator& eval,
    const std::vector<double>& pdr_mins, const dse::RobustnessOptions& robust,
    dse::TerminationBound bound) {
  std::vector<std::string> out;
  pareto::SweepOptions sweep;
  sweep.pdr_ladder = pdr_mins;
  sweep.run.robust = robust;
  sweep.run.bound = bound;
  for (const pareto::RungResult& rung :
       pareto::ladder_front(sc, eval, sweep).rungs) {
    dse::ExplorationOptions opt = sweep.run;
    opt.pdr_min = rung.pdr_min;
    const dse::ExplorationResult a1 = dse::run_algorithm1(sc, eval, opt);
    const pareto::FrontPoint& p = rung.best;
    const bool same =
        a1.feasible == rung.feasible &&
        (!a1.feasible ||
         (a1.best.design_key() == p.cfg.design_key() &&
          same_bits(a1.best_power_mw, p.power_mw) &&
          same_bits(a1.best_pdr, p.pdr) && same_bits(a1.best_p95_s, p.p95_s) &&
          same_bits(a1.best_nlt_s, p.nlt_s) &&
          same_bits(a1.best_pdr_lo, p.pdr_lo) &&
          same_bits(a1.best_pdr_hi, p.pdr_hi) &&
          same_bits(a1.best_protection_mw, p.protection_mw)));
    if (!same) {
      fail(out, "rung optimum disagrees at PDRmin ", rung.pdr_min, ", bound ",
           static_cast<int>(bound), ", gamma ", robust.gamma, ", K ",
           robust.realizations, ": ladder ",
           rung.feasible ? p.cfg.label() : "infeasible", " (", p.power_mw,
           " mW), algorithm1 ", a1.feasible ? a1.best.label() : "infeasible",
           " (", a1.best_power_mw, " mW)");
    }
  }
  return out;
}

std::vector<std::string> check_robust_collapse(const ScenarioSpec& spec) {
  std::vector<std::string> out;
  dse::Evaluator eval(spec.settings);
  // Every explorer and hi::pareto evaluate through RobustBatch, with
  // Γ=0, K=1 as the nominal run.  That is only sound if the fold hands
  // back the plain evaluation bit for bit — checked here directly.
  dse::RobustBatch rb(eval, 0, dse::RobustnessOptions{});
  const std::vector<model::NetworkConfig> configs =
      spec.scenario.feasible_configs();
  if (configs.empty()) {
    fail(out, "scenario has an empty feasible design space");
    return out;
  }
  Rng rng = Rng{spec.seed}.fork("check.robust.collapse");
  const int picks = std::min<int>(4, static_cast<int>(configs.size()));
  for (int i = 0; i < picks; ++i) {
    const model::NetworkConfig& cfg =
        configs[rng.uniform_index(configs.size())];
    const dse::RobustEvaluation rev = rb.evaluate_one(cfg);
    const dse::Evaluation& ev = eval.evaluate(cfg);  // cache hit
    if (rev.worst_pdr != ev.pdr || rev.robust_power_mw != ev.power_mw ||
        rev.worst_nlt_s != ev.nlt_s) {
      fail(out, cfg.label(),
           ": Γ=0/K=1 robust aggregate differs from the plain evaluation");
    }
    if (rev.protection_mw != 0.0) {
      fail(out, cfg.label(), ": Γ=0 protection is ", rev.protection_mw,
           " mW, want exactly 0");
    }
    if (rev.pdr_lo != ev.pdr || rev.pdr_hi != ev.pdr) {
      fail(out, cfg.label(), ": K=1 confidence interval [", rev.pdr_lo,
           ", ", rev.pdr_hi, "] is not degenerate at ", ev.pdr);
    }
  }
  // Encoding collapse: Γ=0 costs are bit-identical to the nominal ones.
  dse::MilpEncoding nominal(spec.scenario);
  dse::MilpEncoding robust0(spec.scenario, 0);
  const dse::MilpRound a = nominal.run_milp();
  const dse::MilpRound b = robust0.run_milp();
  if (a.status != b.status || a.power_mw != b.power_mw ||
      a.candidates.size() != b.candidates.size()) {
    fail(out, "Γ=0 MILP round differs from the nominal encoding's");
  } else {
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
      if (a.candidates[i].design_key() != b.candidates[i].design_key()) {
        fail(out, "Γ=0 MILP candidate ", i,
             " differs from the nominal encoding's");
        break;
      }
    }
  }
  return out;
}

namespace {

/// Every SimResult field but the crowd aggregate, bit for bit: the
/// store's byte image plus the medium's cross-body ledger.
std::string image(const net::SimResult& r) {
  dse::Evaluation ev;
  ev.detail = r;
  ev.detail.crowd = {};
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  w.put_u64(r.medium.cross_offered);
  w.put_u64(r.medium.cross_below_sensitivity);
  return w.bytes();
}

}  // namespace

std::vector<std::string> check_crowd_collapse(const ScenarioSpec& spec) {
  std::vector<std::string> out;
  const std::vector<model::NetworkConfig> configs =
      spec.scenario.feasible_configs();
  if (configs.empty()) {
    fail(out, "scenario has an empty feasible design space");
    return out;
  }
  // The crowd channel at one body is the default body channel, so the
  // single-body side uses the default factory whatever the settings say.
  const net::ChannelFactory make_channel = net::default_channel_factory();
  const int runs = std::max(2, spec.settings.runs);
  Rng rng = Rng{spec.seed}.fork("check.crowd.collapse");
  const int picks = std::min<int>(2, static_cast<int>(configs.size()));
  for (int i = 0; i < picks; ++i) {
    const model::NetworkConfig& cfg =
        configs[rng.uniform_index(configs.size())];
    model::CrowdScenario sc;  // one body by default
    sc.cfg = cfg;
    net::SimParams params = spec.settings.sim;
    params.seed = rng.next_u64();
    const std::uint64_t channel_seed = rng.next_u64();
    for (const bool averaged : {false, true}) {
      const std::string what =
          cfg.label() + (averaged ? " averaged" : " single run");
      obs::MetricsRegistry single_metrics, crowd_metrics;
      params.collect_latency = !averaged;  // the crowd average drops it
      params.metrics = &single_metrics;
      const net::SimResult single =
          averaged ? net::simulate_averaged(cfg, params, runs, make_channel)
                   : net::simulate(cfg, *make_channel(channel_seed), params);
      params.metrics = &crowd_metrics;
      const crowd::CrowdResult cr =
          averaged ? crowd::simulate_crowd_averaged(sc, params, runs)
                   : crowd::simulate_crowd(
                         sc, *crowd::make_crowd_channel_for(sc, channel_seed),
                         params);
      // The crowd seen as one body: run-global headline, medium and
      // event count from the summary, node rows and latency from body 0.
      net::SimResult view = cr.summary;
      view.nodes = cr.per_body.front().nodes;
      view.latency = cr.per_body.front().latency;
      if (image(single) != image(view)) {
        fail(out, what, ": results differ (pdr ", single.pdr, " vs ",
             view.pdr, ", events ", single.events, " vs ", view.events, ")");
      }
      const obs::Snapshot a = single_metrics.snapshot();
      const obs::Snapshot b = crowd_metrics.snapshot();
      for (std::string& v : diff_counters(a, b, {"net.crowd_"})) {
        fail(out, what, ": ", v);
      }
      if (a.gauges != b.gauges) fail(out, what, ": gauges differ");
    }
  }
  return out;
}

std::vector<std::string> check_robust_monotone(
    const ScenarioSpec& spec, const std::vector<int>& gammas,
    const std::vector<int>& realizations) {
  std::vector<std::string> out;
  dse::Evaluator eval(spec.settings);
  const auto run = [&](int gamma, int k) {
    dse::ExplorationOptions opt;
    opt.pdr_min = 0.8;
    opt.robust.gamma = gamma;
    opt.robust.realizations = k;
    eval.reset_counters();  // caches persist — later runs are mostly free
    return dse::run_exhaustive(spec.scenario, eval, opt);
  };
  // Γ sweep at the smallest K: feasibility is Γ-independent (protection
  // only shifts the objective) and the optimum is nondecreasing.
  {
    const int k = realizations.empty() ? 1 : realizations.front();
    bool have_prev = false;
    bool prev_feasible = false;
    double prev_power = 0.0;
    int prev_gamma = 0;
    for (const int gamma : gammas) {
      if (have_prev && gamma < prev_gamma) {
        fail(out, "gammas must be ascending");
        return out;
      }
      const dse::ExplorationResult res = run(gamma, k);
      if (have_prev && res.feasible != prev_feasible) {
        fail(out, "feasibility changed from ", prev_feasible, " to ",
             res.feasible, " when gamma rose from ", prev_gamma, " to ",
             gamma, " (protection must not affect feasibility)");
      }
      if (res.feasible && have_prev && prev_feasible &&
          res.best_power_mw < prev_power - 1e-12) {
        fail(out, "robust optimum dropped from ", prev_power, " mW to ",
             res.best_power_mw, " mW when gamma rose from ", prev_gamma,
             " to ", gamma);
      }
      prev_feasible = res.feasible;
      prev_power = res.best_power_mw;
      prev_gamma = gamma;
      have_prev = true;
    }
  }
  // K sweep at the smallest Γ: realization seeds are nested, so a larger
  // K folds a superset of channels — feasibility can only be lost and
  // the optimum can only rise.
  {
    const int gamma = gammas.empty() ? 0 : gammas.front();
    bool have_prev = false;
    bool prev_feasible = false;
    double prev_power = 0.0;
    int prev_k = 0;
    for (const int k : realizations) {
      if (have_prev && k < prev_k) {
        fail(out, "realizations must be ascending");
        return out;
      }
      const dse::ExplorationResult res = run(gamma, k);
      if (have_prev && res.feasible && !prev_feasible) {
        fail(out, "feasible at K=", k, " after infeasible at K=", prev_k,
             " (nested realizations can only add constraints)");
      }
      if (res.feasible && have_prev && prev_feasible &&
          res.best_power_mw < prev_power - 1e-12) {
        fail(out, "robust optimum dropped from ", prev_power, " mW to ",
             res.best_power_mw, " mW when K rose from ", prev_k, " to ", k);
      }
      prev_feasible = res.feasible;
      prev_power = res.best_power_mw;
      prev_k = k;
      have_prev = true;
    }
  }
  return out;
}

namespace {

/// Bit-for-bit comparison of two exhaustive runs of one scenario: best
/// point, metrics (CI bounds and protection included), history and
/// counters (exec.* scheduling counters excluded).  `how` names the
/// second run's setup in each violation.
void diff_runs(std::vector<std::string>& out, const dse::ExplorationResult& a,
               const dse::ExplorationResult& b, const std::string& how) {
  if (a.feasible != b.feasible) {
    fail(out, "feasibility differs ", how);
  }
  if (a.feasible && a.best.design_key() != b.best.design_key()) {
    fail(out, "best design differs ", how, ": ", a.best.label(), " vs ",
         b.best.label());
  }
  // Exact double comparisons: determinism is bit-identical or broken.
  if (a.best_power_mw != b.best_power_mw || a.best_pdr != b.best_pdr ||
      a.best_nlt_s != b.best_nlt_s || a.best_p95_s != b.best_p95_s ||
      a.best_pdr_lo != b.best_pdr_lo ||
      a.best_pdr_hi != b.best_pdr_hi ||
      a.best_protection_mw != b.best_protection_mw) {
    fail(out, "best metrics (incl. CI) differ ", how);
  }
  if (a.simulations != b.simulations) {
    fail(out, "simulation counts differ ", how, ": ", a.simulations, " vs ",
         b.simulations);
  }
  if (a.history.size() != b.history.size()) {
    fail(out, "history lengths differ ", how);
  } else {
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      const dse::CandidateRecord& x = a.history[i];
      const dse::CandidateRecord& y = b.history[i];
      if (x.cfg.design_key() != y.cfg.design_key() ||
          x.sim_pdr != y.sim_pdr || x.sim_power_mw != y.sim_power_mw ||
          x.sim_nlt_s != y.sim_nlt_s || x.pdr_lo != y.pdr_lo ||
          x.pdr_hi != y.pdr_hi) {
        fail(out, "history entry ", i, " differs ", how);
        break;
      }
    }
  }
  // exec.* counters describe the scheduling itself (batches, queue
  // depths) and are legitimately thread-dependent; everything else must
  // match exactly.
  std::vector<std::string> counter_diffs =
      diff_counters(a.metrics, b.metrics, {"exec."});
  out.insert(out.end(), counter_diffs.begin(), counter_diffs.end());
}

/// Exhaustive search of `spec` at PDRmin 0.8 through `channel`.
dse::ExplorationResult exhaustive_with(const ScenarioSpec& spec,
                                       net::ChannelFactory channel,
                                       int threads,
                                       const dse::RobustnessOptions& robust) {
  dse::EvaluatorSettings s = spec.settings;
  s.channel = std::move(channel);
  s.threads = threads;
  dse::Evaluator eval(s);
  dse::ExplorationOptions opt;
  opt.pdr_min = 0.8;
  opt.robust = robust;
  return dse::run_exhaustive(spec.scenario, eval, opt);
}

}  // namespace

std::vector<std::string> check_robust_thread_determinism(
    const ScenarioSpec& spec, int threads,
    const dse::RobustnessOptions& robust) {
  std::vector<std::string> out;
  diff_runs(out, exhaustive_with(spec, spec.settings.channel, 0, robust),
            exhaustive_with(spec, spec.settings.channel, threads, robust),
            "at " + std::to_string(threads) + " threads");
  return out;
}

std::vector<std::string> check_tape_cache_invisible(
    const ScenarioSpec& spec, int threads,
    const dse::RobustnessOptions& robust) {
  std::vector<std::string> out;
  const net::ChannelFactory uncached = [](std::uint64_t seed) {
    return channel::make_default_body_channel(seed);
  };
  diff_runs(out, exhaustive_with(spec, uncached, 0, robust),
            exhaustive_with(spec, net::default_channel_factory(), threads,
                            robust),
            "with shared fade tapes at " + std::to_string(threads) +
                " threads");
  return out;
}

std::vector<std::string> check_sim_invariants(const ScenarioSpec& spec,
                                              int max_configs) {
  std::vector<std::string> out;
  const std::vector<model::NetworkConfig> configs =
      spec.scenario.feasible_configs();
  if (configs.empty()) {
    fail(out, "scenario has an empty feasible design space");
    return out;
  }
  Rng rng = Rng{spec.seed}.fork("check.invariants");
  const int picks =
      std::min<int>(max_configs, static_cast<int>(configs.size()));
  for (int i = 0; i < picks; ++i) {
    const model::NetworkConfig& cfg =
        configs[rng.uniform_index(configs.size())];
    net::SimParams params = spec.settings.sim;
    params.seed = rng.next_u64();
    const AuditedRun audited =
        audited_simulate(cfg, params, spec.settings.channel);
    for (const std::string& v : audited.violations) {
      fail(out, cfg.label(), ": ", v);
    }
  }
  return out;
}

std::vector<std::string> diff_counters(
    const obs::Snapshot& a, const obs::Snapshot& b,
    const std::vector<std::string>& ignore_prefixes) {
  std::vector<std::string> out;
  const auto ignored = [&](const std::string& name) {
    return std::any_of(ignore_prefixes.begin(), ignore_prefixes.end(),
                       [&](const std::string& p) {
                         return name.compare(0, p.size(), p) == 0;
                       });
  };
  for (const auto& [name, value] : a.counters) {
    if (ignored(name)) continue;
    if (b.counter(name) != value) {
      fail(out, "counter ", name, ": ", value, " vs ", b.counter(name));
    }
  }
  for (const auto& [name, value] : b.counters) {
    if (ignored(name)) continue;
    if (a.counters.find(name) == a.counters.end() && value != 0) {
      fail(out, "counter ", name, ": absent vs ", value);
    }
  }
  return out;
}

}  // namespace hi::check
