// hi-opt: instantaneous channel interface consumed by the network
// simulator, plus the two standard implementations (static matrix for
// deterministic tests; body channel = synthetic average matrix +
// Gauss-Markov fading per link).  A body channel reads its fades from
// an immutable set of per-link NormalTapes for its seed (BodyTapes),
// which may be shared between channels, and then from the link streams
// after them; a channel built on an Rng reads empty tapes.  Trajectories
// are bit-identical whatever the tapes' length.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "channel/path_loss.hpp"
#include "channel/temporal.hpp"
#include "common/rng.hpp"

namespace hi::channel {

/// Abstract instantaneous channel.  path_loss_db() may be stateful
/// (fading processes advance); times must be non-decreasing per link,
/// which the event-driven simulator guarantees.
class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// Instantaneous path loss PL(i,j,t) in dB.
  virtual double path_loss_db(int i, int j, double t) = 0;

  /// Batched form: out[k] = PL(i, js[k], t) for k in [0, n).  The medium
  /// samples every receiver of one transmission through this, so crowd
  /// channels can amortize the per-call index decomposition over the
  /// whole receiver set.  The default delegates to path_loss_db() in
  /// array order, so overriding it is purely an optimization: any
  /// override MUST draw the same fade samples in the same order
  /// (determinism contract — golden fingerprints pin the draws).
  virtual void path_loss_batch_db(int i, const int* js, std::size_t n,
                                  double t, double* out) {
    for (std::size_t k = 0; k < n; ++k) {
      out[k] = path_loss_db(i, js[k], t);
    }
  }

  /// Time-average path loss PL̄(i,j) in dB.
  [[nodiscard]] virtual double mean_path_loss_db(int i, int j) const = 0;
};

/// Deterministic channel: PL(i,j,t) = PL̄(i,j).  Used by unit tests and by
/// the lossless-limit validation of the analytic power model.
class StaticChannel final : public ChannelModel {
 public:
  explicit StaticChannel(PathLossMatrix avg) : avg_(std::move(avg)) {}

  double path_loss_db(int i, int j, double /*t*/) override {
    return avg_.db(i, j);
  }
  [[nodiscard]] double mean_path_loss_db(int i, int j) const override {
    return avg_.db(i, j);
  }

 private:
  PathLossMatrix avg_;
};

/// Number of symmetric body links, kNumLocations choose 2.
inline constexpr std::size_t kNumBodyLinks =
    kNumLocations * (kNumLocations - 1) / 2;

/// Draws per link in make_body_tapes' default tapes: 8 KB per link,
/// about 360 KB per seed, whatever the simulated duration.  At Tsim 5 s
/// on the paper scenario they cover 98.7 % of the fade draws.
inline constexpr std::size_t kBodyTapeDraws = 1024;

/// One NormalTape per body link, in BodyChannel's upper-triangle link
/// order.  Link (a,b)'s tape is drawn from the stream BodyChannel(…, rng)
/// gives that link, so a channel built on the tapes of `rng` equals one
/// built on `rng` itself.
using BodyTapes = std::vector<NormalTape>;

/// The first `draws` fade innovations of every body link of `rng`.
[[nodiscard]] std::shared_ptr<const BodyTapes> make_body_tapes(
    const Rng& rng, std::size_t draws = kBodyTapeDraws);

/// Fading parameters of the body channel.  The fade std-dev grows with
/// link distance (limb-to-limb links flap more than trunk links under
/// body movement), matching the qualitative behaviour of the measured
/// WBAN channels the paper builds on.
struct BodyChannelParams {
  double sigma_base_db = 5.0;   ///< fade std-dev of a zero-length link
  double sigma_per_m_db = 4.0;  ///< additional std-dev per meter
  double sigma_max_db = 10.0;   ///< cap
  double tau_s = 1.0;           ///< decorrelation time constant
};

/// Average matrix + per-link Gauss-Markov fading.  Links are symmetric:
/// (i,j) and (j,i) share one fade process.
///
/// All kNumLocations·(kNumLocations-1)/2 link states (memoized average
/// path loss + fade process) are built eagerly at construction into one
/// flat upper-triangle array, so the per-packet hot call path_loss_db()
/// is an index computation plus one Gauss-Markov step — no map lookup,
/// no lazy-init branch (DESIGN.md §11).  Draw-stream equivalence with
/// the historical lazy map: each fade's substream comes from a const
/// Rng::fork keyed only by the pair, and constructing a fade draws
/// nothing, so eager init produces bit-identical trajectories.
///
/// Every fade reads its link's tape of a BodyTapes set first, then the
/// stream after it; a channel built on an Rng is the one on that Rng's
/// empty tapes.  Channels of one seed can share one full set across
/// threads, and results are bit-identical whatever the tapes' length.
/// The links share one DecayTable, since they share τ.
class BodyChannel final : public ChannelModel {
 public:
  /// Draws every fade from `rng`'s link streams: the channel built on
  /// make_body_tapes(rng, 0), whose tapes are empty.
  BodyChannel(PathLossMatrix avg, BodyChannelParams params, Rng rng);
  /// `tapes` holds kNumBodyLinks tapes (see make_body_tapes).
  BodyChannel(PathLossMatrix avg, BodyChannelParams params,
              std::shared_ptr<const BodyTapes> tapes);

  double path_loss_db(int i, int j, double t) override;
  /// Devirtualized inner loop (one virtual dispatch per receiver set
  /// instead of one per pair); sample order matches the default exactly.
  void path_loss_batch_db(int i, const int* js, std::size_t n, double t,
                          double* out) override;
  [[nodiscard]] double mean_path_loss_db(int i, int j) const override;

  /// Fade std-dev assigned to link (i,j) in dB.
  [[nodiscard]] double link_sigma_db(int i, int j) const;

 private:
  /// One symmetric link's memoized state.
  struct LinkState {
    double base_db;  ///< PL̄(i,j), cached out of the matrix
    GaussMarkovFade fade;
  };

  /// Upper-triangle index of the unordered pair {i,j}, i != j.
  [[nodiscard]] static std::size_t link_index(int i, int j);

  PathLossMatrix avg_;
  BodyChannelParams params_;
  /// Every link's fade points into these; the channel keeps them alive.
  std::shared_ptr<const BodyTapes> tapes_;
  std::vector<LinkState> links_;  ///< all pairs, built at construction
  DecayTable decay_;              ///< ρ(Δt) for params_.tau_s
};

/// Convenience factory: calibrated body matrix + default fading.  This
/// is the channel every experiment uses unless it injects its own.
[[nodiscard]] std::unique_ptr<ChannelModel> make_default_body_channel(
    std::uint64_t seed, const BodyChannelParams& params = {});

/// The same channel for the seed `tapes` were drawn from
/// (make_body_tapes(Rng{seed})), reading its fades from the tapes.
[[nodiscard]] std::unique_ptr<ChannelModel> make_default_body_channel(
    std::shared_ptr<const BodyTapes> tapes,
    const BodyChannelParams& params = {});

}  // namespace hi::channel
