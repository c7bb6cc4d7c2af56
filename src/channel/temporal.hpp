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
//
// A step with Δt > 0 reads ρ = exp(-Δt/τ) and sqrt(1-ρ²) from a
// DecayTable, the only way a fade steps.  A channel owns one table per
// τ and passes it to every link's step.  Keyed per channel, Δt repeats
// most of the time: one transmitter's links share their last sample
// time, and the TDMA slot lattice and periodic traffic leave a small set
// of Δt values in a run.  A hit returns the double a recomputation would
// give, so trajectories are bit-identical with or without the table.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// ρ(Δt) and sqrt(1-ρ²) for one τ, memoised in a fixed-size
/// direct-mapped table keyed by the bit pattern of Δt.  Not shared
/// across threads: each channel object owns its tables.
class DecayTable {
 public:
  static constexpr std::size_t kSlots = 512;

  /// The decay of one Δt: δ(t) = rho·δ(t-Δt) + σ·scale·N(0,1).
  struct Decay {
    double rho;
    double scale;  ///< sqrt(1 - rho²)
  };

  explicit DecayTable(double tau_s) : tau_s_(tau_s) {}

  /// The slot Δt maps to; exposed so tests can force a collision.
  [[nodiscard]] static std::size_t slot(double dt) {
    return static_cast<std::size_t>(
        (std::bit_cast<std::uint64_t>(dt) * 0x9E3779B97F4A7C15ULL) >> 55);
  }

  /// The decay over `dt` > 0.  A key of 0 (Δt = +0.0) marks an empty
  /// slot, so Δt must not be zero.
  [[nodiscard]] const Decay& at(double dt) {
    static_assert(kSlots == std::size_t{1} << (64 - 55));
    const std::uint64_t key = std::bit_cast<std::uint64_t>(dt);
    Slot& s = slots_[slot(dt)];
    if (s.key != key) {
      s.key = key;
      s.decay.rho = std::exp(-dt / tau_s_);
      s.decay.scale = std::sqrt(1.0 - s.decay.rho * s.decay.rho);
    }
    return s.decay;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    Decay decay{};
  };

  double tau_s_;
  std::array<Slot, kSlots> slots_{};
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

  /// Returns δPL at time t (dB).  `t` must be >= the previous call's
  /// time.  The step decays with `decay`'s τ, so the caller passes a
  /// table built from the τ the fade was constructed with.
  double sample_db(double t, DecayTable& decay);

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
