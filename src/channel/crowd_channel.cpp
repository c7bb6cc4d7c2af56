#include "channel/crowd_channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "channel/locations.hpp"
#include "channel/path_loss.hpp"
#include "common/assert.hpp"

namespace hi::channel {

namespace {

/// 3-D world position of location `loc` on a body standing at `pose`.
struct WorldPos {
  double x, y, z;
};

WorldPos world_position(const BodyPose& pose, int loc) {
  const LocationInfo& info = locations()[static_cast<std::size_t>(loc)];
  return WorldPos{pose.x_m + info.x, pose.y_m + info.y, info.z};
}

bool on_back(int loc) {
  return locations()[static_cast<std::size_t>(loc)].side == BodySide::kBack;
}

}  // namespace

std::uint64_t CrowdChannel::body_channel_seed(std::uint64_t seed, int b) {
  if (b == 0) {
    return seed;  // M=1 collapses onto make_default_body_channel(seed)
  }
  return Rng{seed}.fork("crowd.intra").fork(static_cast<std::uint64_t>(b))
      .next_u64();
}

CrowdChannel::CrowdChannel(std::vector<BodyPose> poses,
                           BodyChannelParams intra, InterBodyParams inter,
                           std::uint64_t seed)
    : poses_(std::move(poses)), inter_(inter), cross_decay_(inter.tau_s) {
  const int m = static_cast<int>(poses_.size());
  HI_REQUIRE(m >= 1, "CrowdChannel: need at least one body");
  HI_REQUIRE(inter_.exponent > 0.0 && inter_.d0_m > 0.0 &&
                 inter_.min_distance_m > 0.0,
             "CrowdChannel: inter-body law parameters must be positive");
  intra_.reserve(static_cast<std::size_t>(m));
  for (int b = 0; b < m; ++b) {
    intra_.push_back(std::make_unique<BodyChannel>(
        calibrated_body_path_loss(), intra, Rng{body_channel_seed(seed, b)}));
  }
  if (m == 1) {
    return;  // no cross links, no extra draws: the single-body channel
  }
  HI_REQUIRE(inter_.tau_s > 0.0,
             "CrowdChannel: cross-fade tau must be positive");
  cross_coherence_s_ = inter_.tau_s / 64.0;
  // Eagerly build every cross link, pair-major.  Substream labels depend
  // only on (pair, li, lj), so the fade trajectory of a given cross link
  // does not depend on how many links a run exercises.
  const Rng inter_root = Rng{seed}.fork("crowd.inter");
  cross_.reserve(static_cast<std::size_t>(m) * (m - 1) / 2 * kNumLocations *
                 kNumLocations);
  std::uint64_t pair = 0;
  for (int a = 0; a < m; ++a) {
    for (int b = a + 1; b < m; ++b, ++pair) {
      const Rng pair_rng = inter_root.fork(pair);
      for (int li = 0; li < kNumLocations; ++li) {
        for (int lj = 0; lj < kNumLocations; ++lj) {
          GaussMarkovParams gm;
          gm.sigma_db = inter_.sigma_db;
          gm.tau_s = inter_.tau_s;
          const auto label = static_cast<std::uint64_t>(li) * kNumLocations +
                             static_cast<std::uint64_t>(lj);
          cross_.push_back(
              CrossLink{cross_base_db(a, li, b, lj),
                        -std::numeric_limits<double>::infinity(),
                        {gm, pair_rng.fork(label)}});
        }
      }
    }
  }
}

double CrowdChannel::cross_base_db(int a, int li, int b, int lj) const {
  const WorldPos pa = world_position(poses_[static_cast<std::size_t>(a)], li);
  const WorldPos pb = world_position(poses_[static_cast<std::size_t>(b)], lj);
  const double dx = pa.x - pb.x, dy = pa.y - pb.y, dz = pa.z - pb.z;
  const double d = std::max(std::sqrt(dx * dx + dy * dy + dz * dz),
                            inter_.min_distance_m);
  double pl = inter_.pl0_db +
              10.0 * inter_.exponent * std::log10(d / inter_.d0_m);
  if (on_back(li)) pl += inter_.shadow_db;
  if (on_back(lj)) pl += inter_.shadow_db;
  return pl;
}

std::size_t CrowdChannel::cross_index(int a, int li, int b, int lj) const {
  // a < b by the callers' normalization; li belongs to body a.
  const int m = static_cast<int>(poses_.size());
  const std::size_t pair =
      static_cast<std::size_t>(a) * (2 * m - a - 1) / 2 +
      static_cast<std::size_t>(b - a - 1);
  return (pair * kNumLocations + static_cast<std::size_t>(li)) *
             kNumLocations +
         static_cast<std::size_t>(lj);
}

double CrowdChannel::sample_cross_db(CrossLink& link, double t) {
  if (t < link.hold_until) {
    return link.base_db + link.fade.current_db();
  }
  link.hold_until = t + cross_coherence_s_;
  return link.base_db + link.fade.sample_db(t, cross_decay_);
}

double CrowdChannel::path_loss_db(int gi, int gj, double t) {
  const int bi = gi / kNumLocations, li = gi % kNumLocations;
  const int bj = gj / kNumLocations, lj = gj % kNumLocations;
  if (bi == bj) {
    return intra_[static_cast<std::size_t>(bi)]->path_loss_db(li, lj, t);
  }
  CrossLink& link = bi < bj
                        ? cross_[cross_index(bi, li, bj, lj)]
                        : cross_[cross_index(bj, lj, bi, li)];
  return sample_cross_db(link, t);
}

void CrowdChannel::path_loss_batch_db(int gi, const int* gjs, std::size_t n,
                                      double t, double* out) {
  const int bi = gi / kNumLocations, li = gi % kNumLocations;
  BodyChannel& home = *intra_[static_cast<std::size_t>(bi)];
  for (std::size_t k = 0; k < n; ++k) {
    const int gj = gjs[k];
    const int bj = gj / kNumLocations, lj = gj % kNumLocations;
    if (bi == bj) {
      out[k] = home.path_loss_db(li, lj, t);
      continue;
    }
    CrossLink& link = bi < bj
                          ? cross_[cross_index(bi, li, bj, lj)]
                          : cross_[cross_index(bj, lj, bi, li)];
    out[k] = sample_cross_db(link, t);
  }
}

double CrowdChannel::mean_path_loss_db(int gi, int gj) const {
  const int bi = gi / kNumLocations, li = gi % kNumLocations;
  const int bj = gj / kNumLocations, lj = gj % kNumLocations;
  if (bi == bj) {
    return intra_[static_cast<std::size_t>(bi)]->mean_path_loss_db(li, lj);
  }
  return bi < bj ? cross_base_db(bi, li, bj, lj)
                 : cross_base_db(bj, lj, bi, li);
}

std::unique_ptr<CrowdChannel> make_crowd_channel(std::uint64_t seed,
                                                 std::vector<BodyPose> poses,
                                                 const BodyChannelParams& intra,
                                                 const InterBodyParams& inter) {
  return std::make_unique<CrowdChannel>(std::move(poses), intra, inter, seed);
}

}  // namespace hi::channel
