#include "channel/temporal.hpp"

#include "common/assert.hpp"

namespace hi::channel {

NormalTape::NormalTape(Rng stream, std::size_t n) : rest_(stream) {
  draws_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    draws_.push_back(rest_.normal());
  }
}

GaussMarkovFade::GaussMarkovFade(GaussMarkovParams params, Rng rng)
    : params_(params), rng_(rng) {
  HI_REQUIRE(params_.sigma_db >= 0.0, "sigma must be non-negative");
  HI_REQUIRE(params_.tau_s > 0.0, "tau must be positive");
}

GaussMarkovFade::GaussMarkovFade(GaussMarkovParams params,
                                 const NormalTape& tape)
    : GaussMarkovFade(params, tape.rest()) {
  tape_ = tape.draws().data();
  tape_size_ = tape.draws().size();
}

double GaussMarkovFade::sample_db(double t, DecayTable& decay) {
  if (!initialized_) {
    initialized_ = true;
    last_t_ = t;
    delta_db_ = normal(params_.sigma_db);
    return delta_db_;
  }
  HI_ASSERT_MSG(t >= last_t_, "time went backwards: " << t << " < " << last_t_);
  const double dt = t - last_t_;
  last_t_ = t;
  if (dt == 0.0) {
    return delta_db_;
  }
  const DecayTable::Decay& d = decay.at(dt);
  delta_db_ = d.rho * delta_db_ + normal(params_.sigma_db * d.scale);
  return delta_db_;
}

}  // namespace hi::channel
