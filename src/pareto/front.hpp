// hi-opt: multi-objective Pareto front over (power, PDR, p95 latency).
//
// The paper's Fig. 3 trade-off is one curve — minimum power as a
// function of PDRmin.  This module generalizes it to the full
// three-objective front per scenario (DESIGN.md §14): minimize the
// worst lifetime-relevant node power, maximize the network PDR, and
// minimize the p95 end-to-end delay (net/latency.hpp).  A FrontBuilder
// ingests evaluated design points from any producer — the exhaustive
// sweep, a MILP round's tied optima, or a warm hi::store with zero
// re-simulation — and maintains the non-dominated set.
//
// Dominance semantics: point a dominates point b when a is no worse on
// all three objectives and strictly better on at least one.  Two
// distinct designs with identical objectives do not dominate each
// other, so exact ties survive — the exact front equals the brute-force
// oracle's, which the tier-1 differential test pins.  The optional
// epsilon knob switches to additive ε-dominance (a ε-dominates b when a
// is within ε of b on every objective), a standard archive-thinning
// device: the kept front is an ε-approximate cover, ingest-order
// dependent, so callers must ingest in a deterministic order.
#pragma once

#include <cstdint>
#include <vector>

#include "dse/robustness.hpp"
#include "model/config.hpp"

namespace hi::pareto {

/// A front point is a dse::DesignPoint; make_point builds one from a
/// (K-realization) evaluation.
using FrontPoint = dse::DesignPoint;
using dse::make_point;

/// The ε-dominance knob.  All-zero (the default) selects exact strict
/// Pareto dominance.
struct FrontOptions {
  double epsilon_power_mw = 0.0;
  double epsilon_pdr = 0.0;
  double epsilon_p95_s = 0.0;
  [[nodiscard]] bool active() const {
    return epsilon_power_mw > 0.0 || epsilon_pdr > 0.0 || epsilon_p95_s > 0.0;
  }
};

/// True when `a` (ε-)dominates `b`; see the file comment.
[[nodiscard]] bool dominates(const FrontPoint& a, const FrontPoint& b,
                             const FrontOptions& opt = {});

/// Deterministic total order on points: dse::lex_before, the one
/// incumbent order (power ascending, then PDR descending, then p95
/// ascending, then design_key ascending).  The level walk picks per-rung
/// incumbents by this order, which is what makes every certified rung
/// optimum globally non-dominated (no point ordered after the
/// lexicographic minimum can dominate it).
using dse::lex_before;

/// See file comment.
class FrontBuilder {
 public:
  explicit FrontBuilder(FrontOptions opt = {}) : opt_(opt) {}

  /// Offers a point to the archive.  Returns true when the point joins
  /// the front (possibly displacing dominated members), false when it is
  /// dominated by a member or its design_key was already offered
  /// (re-offers of a design are identical by evaluation determinism, so
  /// they are dropped outright — this also keeps ε-archives stable).
  bool insert(const FrontPoint& p);

  /// The current non-dominated set in lex_before order.
  [[nodiscard]] std::vector<FrontPoint> front() const;

  /// Members currently on the front.
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  /// Points offered (distinct design keys).
  [[nodiscard]] std::uint64_t offered() const { return offered_; }

  /// Offers rejected because a member dominated them.
  [[nodiscard]] std::uint64_t dominated_dropped() const {
    return dominated_dropped_;
  }

  /// Members displaced by later insertions.
  [[nodiscard]] std::uint64_t displaced() const { return displaced_; }

  [[nodiscard]] const FrontOptions& options() const { return opt_; }

 private:
  FrontOptions opt_;
  std::vector<FrontPoint> points_;  ///< unordered archive
  std::vector<std::uint64_t> seen_keys_;  ///< every design_key ever offered
  std::uint64_t offered_ = 0;
  std::uint64_t dominated_dropped_ = 0;
  std::uint64_t displaced_ = 0;
};

}  // namespace hi::pareto
