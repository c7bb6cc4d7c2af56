#include "channel/channel.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hi::channel {

std::size_t BodyChannel::link_index(int i, int j) {
  const auto [a, b] = std::minmax(i, j);
  // Row-major upper triangle over n = kNumLocations points.
  return static_cast<std::size_t>(a) * (2 * kNumLocations - a - 1) / 2 +
         static_cast<std::size_t>(b - a - 1);
}

namespace {

/// Fork label of link (a,b)'s fade stream.
std::uint64_t link_label(int a, int b) {
  return static_cast<std::uint64_t>(a) * 64 + static_cast<std::uint64_t>(b);
}

}  // namespace

std::shared_ptr<const BodyTapes> make_body_tapes(const Rng& rng,
                                                 std::size_t draws) {
  auto tapes = std::make_shared<BodyTapes>();
  tapes->reserve(kNumBodyLinks);
  for (int a = 0; a < kNumLocations; ++a) {
    for (int b = a + 1; b < kNumLocations; ++b) {
      tapes->emplace_back(rng.fork(link_label(a, b)), draws);
    }
  }
  return tapes;
}

BodyChannel::BodyChannel(PathLossMatrix avg, BodyChannelParams params, Rng rng)
    : BodyChannel(std::move(avg), params, make_body_tapes(rng, 0)) {}

BodyChannel::BodyChannel(PathLossMatrix avg, BodyChannelParams params,
                         std::shared_ptr<const BodyTapes> tapes)
    : avg_(std::move(avg)),
      params_(params),
      tapes_(std::move(tapes)),
      decay_(params_.tau_s) {
  HI_REQUIRE(params_.sigma_base_db >= 0.0 && params_.sigma_per_m_db >= 0.0 &&
                 params_.sigma_max_db >= 0.0,
             "fade std-devs must be non-negative");
  HI_REQUIRE(params_.tau_s > 0.0, "tau must be positive");
  HI_REQUIRE(tapes_ != nullptr && tapes_->size() == kNumBodyLinks,
             "body channel needs one tape per link");
  // Eagerly build every link's fade.  Substream labels depend only on
  // the pair and fork() is const, so the draw streams are identical to
  // the historical create-on-first-sample scheme regardless of which
  // links a run actually exercises.
  links_.reserve(kNumBodyLinks);
  for (int a = 0; a < kNumLocations; ++a) {
    for (int b = a + 1; b < kNumLocations; ++b) {
      GaussMarkovParams gm;
      gm.sigma_db = link_sigma_db(a, b);
      gm.tau_s = params_.tau_s;
      links_.push_back(LinkState{
          avg_.db(a, b), GaussMarkovFade{gm, (*tapes_)[links_.size()]}});
    }
  }
}

double BodyChannel::link_sigma_db(int i, int j) const {
  const double d = euclidean_distance_m(i, j);
  return std::min(params_.sigma_base_db + params_.sigma_per_m_db * d,
                  params_.sigma_max_db);
}

double BodyChannel::path_loss_db(int i, int j, double t) {
  if (i == j) {
    return 0.0;
  }
  LinkState& link = links_[link_index(i, j)];
  return link.base_db + link.fade.sample_db(t, decay_);
}

void BodyChannel::path_loss_batch_db(int i, const int* js, std::size_t n,
                                     double t, double* out) {
  for (std::size_t k = 0; k < n; ++k) {
    const int j = js[k];
    if (i == j) {
      out[k] = 0.0;
      continue;
    }
    LinkState& link = links_[link_index(i, j)];
    out[k] = link.base_db + link.fade.sample_db(t, decay_);
  }
}

double BodyChannel::mean_path_loss_db(int i, int j) const {
  return avg_.db(i, j);
}

std::unique_ptr<ChannelModel> make_default_body_channel(
    std::uint64_t seed, const BodyChannelParams& params) {
  return std::make_unique<BodyChannel>(calibrated_body_path_loss(), params,
                                       Rng{seed});
}

std::unique_ptr<ChannelModel> make_default_body_channel(
    std::shared_ptr<const BodyTapes> tapes, const BodyChannelParams& params) {
  return std::make_unique<BodyChannel>(calibrated_body_path_loss(), params,
                                       std::move(tapes));
}

}  // namespace hi::channel
