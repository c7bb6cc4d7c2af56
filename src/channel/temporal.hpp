// hi-opt: temporal variation δPL(t) of a body-channel link.
//
// The paper (Eq. 1) models the instantaneous path loss as
//     PL(i,j,t) = PL̄(i,j) + δPL(i,j,t)
// where δPL(t) is drawn from a pdf conditioned on the previously observed
// value δPL(t-Δt) and the elapsed time Δt — "if little time has passed,
// δPL(t) does not significantly differ from δPL(t-Δt)".  The empirical
// pdfs (Smith et al. / Castalia) are not available offline; we substitute
// the first-order Gauss-Markov (discretized Ornstein-Uhlenbeck) process
// that has exactly this conditional structure:
//
//     δ(t) = ρ·δ(t-Δt) + σ·sqrt(1-ρ²)·N(0,1),   ρ = exp(-Δt/τ).
//
// σ is the stationary standard deviation of the fade (dB) and τ the
// decorrelation time constant (seconds, body-movement timescale).  The
// process is stationary with δ ~ N(0, σ²) and autocorrelation exp(-Δt/τ),
// both of which the test suite verifies.
//
// The N(0,1) innovations come from one draw path: the next entry of an
// immutable NormalTape while any remain, then the fade's own Rng.  A
// tape holds the first draws of a stream plus the stream's state after
// them, so a tape-backed fade is bit-identical to a fade built on the
// stream itself (an empty tape).  Tapes let the many simulations that
// share one channel seed (common random numbers across design points)
// read each link's innovations instead of recomputing them; the polar
// method's log/sqrt is the bulk of a fade sample's cost.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace hi::channel {

/// Parameters of the Gauss-Markov fade process for one link.
struct GaussMarkovParams {
  double sigma_db = 6.0;  ///< stationary std-dev of the fade in dB
  double tau_s = 1.0;     ///< decorrelation time constant in seconds
};

/// The first `size()` Rng::normal() draws of one stream, plus the
/// stream's state after them.  Immutable once built, so any number of
/// threads may read one tape.
class NormalTape {
 public:
  /// Draws `n` standard normals from `stream`.
  NormalTape(Rng stream, std::size_t n);

  [[nodiscard]] const std::vector<double>& draws() const { return draws_; }
  /// The stream positioned just past draws().
  [[nodiscard]] const Rng& rest() const { return rest_; }

 private:
  std::vector<double> draws_;
  Rng rest_;
};

/// One link's temporal fade state.  Sampling at monotonically
/// non-decreasing times yields a stationary Gauss-Markov trajectory;
/// the first sample is drawn from the stationary distribution.
class GaussMarkovFade {
 public:
  /// Draws every innovation from `rng` (the empty-tape path).
  GaussMarkovFade(GaussMarkovParams params, Rng rng);

  /// Reads innovations from `tape`, then from tape.rest().  Bit-identical
  /// to GaussMarkovFade(params, <the stream the tape was drawn from>).
  /// The tape must outlive the fade (the fade keeps a pointer into it),
  /// so a temporary tape is rejected at compile time.
  GaussMarkovFade(GaussMarkovParams params, const NormalTape& tape);
  GaussMarkovFade(GaussMarkovParams params, NormalTape&& tape) = delete;

  /// Returns δPL at time t (dB).  `t` must be >= the previous call's time.
  double sample_db(double t);

  /// Last sampled value without advancing the process.
  [[nodiscard]] double current_db() const { return delta_db_; }

  [[nodiscard]] const GaussMarkovParams& params() const { return params_; }

 private:
  /// N(0, stddev²) with Rng::normal(0.0, stddev)'s exact arithmetic.
  double normal(double stddev) {
    const double z = next_ < tape_size_ ? tape_[next_++] : rng_.normal();
    return 0.0 + stddev * z;
  }

  GaussMarkovParams params_;
  Rng rng_;
  const double* tape_ = nullptr;
  std::size_t tape_size_ = 0;
  std::size_t next_ = 0;
  double last_t_ = 0.0;
  double delta_db_ = 0.0;
  bool initialized_ = false;
};

}  // namespace hi::channel
