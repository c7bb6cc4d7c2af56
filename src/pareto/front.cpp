#include "pareto/front.hpp"

#include <algorithm>

namespace hi::pareto {

bool dominates(const FrontPoint& a, const FrontPoint& b,
               const FrontOptions& opt) {
  const bool no_worse = a.power_mw <= b.power_mw + opt.epsilon_power_mw &&
                        a.pdr >= b.pdr - opt.epsilon_pdr &&
                        a.p95_s <= b.p95_s + opt.epsilon_p95_s;
  if (!no_worse) {
    return false;
  }
  if (opt.active()) {
    // ε-dominance: being within ε on every objective is enough (the
    // archive keeps one representative per ε-box).
    return true;
  }
  return a.power_mw < b.power_mw || a.pdr > b.pdr || a.p95_s < b.p95_s;
}

bool FrontBuilder::insert(const FrontPoint& p) {
  const std::uint64_t key = p.cfg.design_key();
  if (std::find(seen_keys_.begin(), seen_keys_.end(), key) !=
      seen_keys_.end()) {
    return false;
  }
  seen_keys_.push_back(key);
  ++offered_;
  for (const FrontPoint& member : points_) {
    if (dominates(member, p, opt_)) {
      ++dominated_dropped_;
      return false;
    }
  }
  // The newcomer survives: evict every member it dominates.
  const std::size_t before = points_.size();
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const FrontPoint& member) {
                                 return dominates(p, member, opt_);
                               }),
                points_.end());
  displaced_ += before - points_.size();
  points_.push_back(p);
  return true;
}

std::vector<FrontPoint> FrontBuilder::front() const {
  std::vector<FrontPoint> out = points_;
  std::sort(out.begin(), out.end(), lex_before);
  return out;
}

}  // namespace hi::pareto
