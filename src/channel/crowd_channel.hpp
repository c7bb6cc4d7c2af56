// hi-opt: shared-medium channel for M co-located human intranets.
//
// Node identity at this layer is a *global channel id*
//     g = body * kNumLocations + location,
// so the CrowdChannel is an ordinary ChannelModel over M·10 points:
//
//   * intra-body pairs (same body) delegate to a per-body BodyChannel —
//     body b's fade trajectories are bit-identical to a standalone
//     BodyChannel seeded with body_channel_seed(seed, b), and
//     body_channel_seed(seed, 0) == seed, which is what makes an M=1
//     crowd run collapse bit-exactly onto the single-body simulator
//     (DESIGN.md §15);
//
//   * inter-body pairs use a log-distance law over the 3-D distance
//     between the two nodes' world positions (body origin on the floor
//     plane + the location's on-body offset), a trunk-shadowing penalty
//     per back-side endpoint, and a per-(node, node) Gauss-Markov fade.
//
// All M(M-1)/2 · 100 cross-link states live in one flat pair-major
// array built eagerly at construction — the hot path (one transmission
// fanning out to every other radio via path_loss_batch_db) is index
// arithmetic plus one Gauss-Markov step per receiver, no map lookups.
// M=1 builds no cross state and draws nothing beyond body 0's intra
// links.  The cross links share one DecayTable; each body's intra
// channel keeps its own.
//
// Cross-fade coherence: a dense crowd transmits every few milliseconds
// while the fade decorrelates on the body-movement timescale τ (1 s by
// default), so re-stepping the Gauss-Markov process per transmission
// would burn an exp + a normal draw to move the fade by noise-level
// amounts.  Each cross link therefore holds its sampled value for
// τ/64 and re-steps (with the true total elapsed Δt, preserving the
// process statistics at refresh points) only after that coherence
// window expires.  Purely deterministic — the refresh schedule depends
// on sample times alone — and intra-body links are untouched, so the
// M=1 collapse contract is unaffected.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/channel.hpp"

namespace hi::channel {

/// Inter-body propagation parameters (2.4 GHz off-body, crowd regime:
/// log-distance with an indoor-ish exponent, plus creeping-wave
/// shadowing when an endpoint sits on the back of its body).
struct InterBodyParams {
  double pl0_db = 55.0;       ///< loss at the reference distance d0
  double d0_m = 1.0;          ///< reference distance
  double exponent = 3.0;      ///< inter-body path-loss exponent
  double shadow_db = 7.0;     ///< per back-side endpoint penalty
  double sigma_db = 6.0;      ///< cross-link fade std-dev
  double tau_s = 1.0;         ///< cross-link decorrelation time
  double min_distance_m = 0.2;  ///< distance floor (stacked bodies)
};

/// Where one body stands on the floor plane (meters).
struct BodyPose {
  double x_m = 0.0;
  double y_m = 0.0;
};

/// See file comment.
class CrowdChannel final : public ChannelModel {
 public:
  /// One body per pose.  `seed` is the crowd channel root; body 0's
  /// intra-body channel is seeded with `seed` itself (M=1 contract).
  CrowdChannel(std::vector<BodyPose> poses, BodyChannelParams intra,
               InterBodyParams inter, std::uint64_t seed);

  double path_loss_db(int gi, int gj, double t) override;
  void path_loss_batch_db(int gi, const int* gjs, std::size_t n, double t,
                          double* out) override;
  [[nodiscard]] double mean_path_loss_db(int gi, int gj) const override;

  [[nodiscard]] int bodies() const { return static_cast<int>(poses_.size()); }

  /// Average cross-link loss between node li of body a and node lj of
  /// body b (a != b); exposed for tests.
  [[nodiscard]] double cross_base_db(int a, int li, int b, int lj) const;

  /// Intra-body channel seed of body `b` under crowd root `seed`.
  /// body_channel_seed(seed, 0) == seed, exactly — the M=1 contract.
  [[nodiscard]] static std::uint64_t body_channel_seed(std::uint64_t seed,
                                                      int b);

 private:
  struct CrossLink {
    double base_db;
    /// End of the current coherence window: samples before this time
    /// reuse fade.current_db() without advancing the process.
    double hold_until;
    GaussMarkovFade fade;
  };

  /// Flat index of the cross link (a, li) -> (b, lj) with a < b.
  [[nodiscard]] std::size_t cross_index(int a, int li, int b, int lj) const;

  /// Coherence-window sample: reuses the held fade inside the window,
  /// re-steps the process (and opens a new window) outside it.
  double sample_cross_db(CrossLink& link, double t);

  std::vector<BodyPose> poses_;
  InterBodyParams inter_;
  /// Cross-fade coherence window, τ/64 (see file comment).
  double cross_coherence_s_ = 0.0;
  /// Per-body intra channels, indexed by body.
  std::vector<std::unique_ptr<BodyChannel>> intra_;
  /// Pair-major flat table: pair(a<b) * 100 + li * 10 + lj.
  std::vector<CrossLink> cross_;
  /// ρ(Δt) for inter_.tau_s, shared by every cross link.
  DecayTable cross_decay_;
};

/// Factory mirroring make_default_body_channel: calibrated intra matrix,
/// default fading, the given poses and inter-body parameters.
[[nodiscard]] std::unique_ptr<CrowdChannel> make_crowd_channel(
    std::uint64_t seed, std::vector<BodyPose> poses,
    const BodyChannelParams& intra = {}, const InterBodyParams& inter = {});

}  // namespace hi::channel
