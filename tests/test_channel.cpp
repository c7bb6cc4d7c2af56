// Unit and statistical tests for the body channel (channel/*).
#include "channel/channel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check/properties.hpp"
#include "common/assert.hpp"
#include "common/stats.hpp"

namespace hi::channel {
namespace {

TEST(Locations, TableIsComplete) {
  EXPECT_EQ(kNumLocations, 10);
  EXPECT_EQ(location_name(kChest), "chest");
  EXPECT_EQ(location_name(kBack), "back");
  EXPECT_THROW((void)location_name(10), ModelError);
  EXPECT_THROW((void)location_name(-1), ModelError);
}

TEST(Locations, DistancesAreMetricLike) {
  for (int i = 0; i < kNumLocations; ++i) {
    EXPECT_DOUBLE_EQ(euclidean_distance_m(i, i), 0.0);
    for (int j = 0; j < kNumLocations; ++j) {
      EXPECT_DOUBLE_EQ(euclidean_distance_m(i, j), euclidean_distance_m(j, i));
      if (i != j) EXPECT_GT(euclidean_distance_m(i, j), 0.0);
    }
  }
  // Sanity: chest-hip is much shorter than chest-ankle.
  EXPECT_LT(euclidean_distance_m(kChest, kLeftHip),
            euclidean_distance_m(kChest, kLeftAnkle));
}

TEST(Locations, OnlyBackCrossesTrunkFromChest) {
  EXPECT_TRUE(crosses_trunk(kChest, kBack));
  EXPECT_FALSE(crosses_trunk(kChest, kLeftWrist));
  EXPECT_FALSE(crosses_trunk(kBack, kBack));
}

TEST(PathLossMatrix, SetAndGetSymmetric) {
  PathLossMatrix m;
  m.set_db(2, 5, 70.0);
  EXPECT_DOUBLE_EQ(m.db(2, 5), 70.0);
  EXPECT_DOUBLE_EQ(m.db(5, 2), 70.0);
  EXPECT_DOUBLE_EQ(m.db(3, 3), 0.0);
  EXPECT_THROW(m.set_db(0, 10, 1.0), ModelError);
}

TEST(SyntheticPathLoss, GrowsWithDistanceAndTrunk) {
  const PathLossMatrix m = synthetic_body_path_loss();
  // Log-distance: chest-hip < chest-wrist < chest-ankle.
  EXPECT_LT(m.db(kChest, kLeftHip), m.db(kChest, kLeftWrist));
  EXPECT_LT(m.db(kChest, kLeftWrist), m.db(kChest, kLeftAnkle));
  // Trunk-crossing penalty: chest-back exceeds the distance-only value.
  SyntheticPathLossParams no_trunk;
  no_trunk.trunk_penalty_db = 0.0;
  const PathLossMatrix m0 = synthetic_body_path_loss(no_trunk);
  EXPECT_NEAR(m.db(kChest, kBack) - m0.db(kChest, kBack), 14.0, 1e-9);
}

TEST(SyntheticPathLoss, ReferenceDistanceValue) {
  SyntheticPathLossParams p;
  const PathLossMatrix m = synthetic_body_path_loss(p);
  // Reconstruct one entry by hand.
  const double d = euclidean_distance_m(kChest, kLeftHip);
  const double expected = p.pl0_db + 10.0 * p.exponent * std::log10(d / p.d0_m);
  EXPECT_NEAR(m.db(kChest, kLeftHip), expected, 1e-9);
}

TEST(CalibratedPathLoss, HasTheMeasuredCampaignStructure) {
  const PathLossMatrix& m = calibrated_body_path_loss();
  for (int i = 0; i < kNumLocations; ++i) {
    for (int j = i + 1; j < kNumLocations; ++j) {
      EXPECT_GE(m.db(i, j), 55.0) << i << "," << j;
      EXPECT_LE(m.db(i, j), 100.0) << i << "," << j;
    }
  }
  // Trunk links strong; ankle links deep — the star/mesh discriminator.
  EXPECT_LT(m.db(kChest, kLeftHip), 70.0);
  EXPECT_GT(m.db(kChest, kLeftAnkle), 85.0);
  EXPECT_GT(m.db(kLeftWrist, kLeftAnkle), 85.0);
  // The hip is the natural relay toward the ankle.
  EXPECT_LT(m.db(kLeftHip, kLeftAnkle), m.db(kChest, kLeftAnkle));
}

TEST(GaussMarkov, FirstSampleFromStationaryDistribution) {
  GaussMarkovParams p{6.0, 1.0};
  RunningStats s;
  for (std::uint64_t seed = 0; seed < 4'000; ++seed) {
    GaussMarkovFade f(p, Rng{seed});
    DecayTable decay(p.tau_s);
    s.add(f.sample_db(0.0, decay));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.3);
  EXPECT_NEAR(s.stddev(), 6.0, 0.3);
}

TEST(GaussMarkov, StationaryAfterLongRun) {
  GaussMarkovParams p{4.0, 0.5};
  GaussMarkovFade f(p, Rng{11});
  DecayTable decay(p.tau_s);
  RunningStats s;
  double t = 0.0;
  for (int i = 0; i < 200'000; ++i) {
    t += 0.05;
    s.add(f.sample_db(t, decay));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.15);
  EXPECT_NEAR(s.stddev(), 4.0, 0.15);
}

TEST(GaussMarkov, AutocorrelationMatchesExpDecay) {
  // The paper's conditional-pdf property: correlation exp(-dt/tau).
  GaussMarkovParams p{5.0, 2.0};
  const double dt = 1.0;  // one lag = dt/tau = 0.5
  GaussMarkovFade f(p, Rng{13});
  DecayTable decay(p.tau_s);
  std::vector<double> x;
  double t = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    x.push_back(f.sample_db(t, decay));
    t += dt;
  }
  std::vector<double> head(x.begin(), x.end() - 1);
  std::vector<double> tail(x.begin() + 1, x.end());
  EXPECT_NEAR(pearson_correlation(head, tail), std::exp(-dt / p.tau_s), 0.02);
}

TEST(GaussMarkov, ZeroElapsedTimeKeepsValue) {
  GaussMarkovFade f({6.0, 1.0}, Rng{17});
  DecayTable decay(1.0);
  const double v = f.sample_db(3.0, decay);
  EXPECT_DOUBLE_EQ(f.sample_db(3.0, decay), v);
  EXPECT_DOUBLE_EQ(f.current_db(), v);
}

TEST(GaussMarkov, TinyStepBarelyMoves) {
  GaussMarkovFade f({6.0, 1.0}, Rng{19});
  DecayTable decay(1.0);
  const double v0 = f.sample_db(0.0, decay);
  const double v1 = f.sample_db(1e-6, decay);
  EXPECT_NEAR(v1, v0, 0.1);
}

TEST(GaussMarkov, RejectsBadParams) {
  EXPECT_THROW(GaussMarkovFade({-1.0, 1.0}, Rng{1}), ModelError);
  EXPECT_THROW(GaussMarkovFade({1.0, 0.0}, Rng{1}), ModelError);
}

TEST(StaticChannel, IsDeterministic) {
  PathLossMatrix m;
  m.set_db(0, 1, 60.0);
  StaticChannel ch(m);
  EXPECT_DOUBLE_EQ(ch.path_loss_db(0, 1, 0.0), 60.0);
  EXPECT_DOUBLE_EQ(ch.path_loss_db(0, 1, 100.0), 60.0);
  EXPECT_DOUBLE_EQ(ch.mean_path_loss_db(1, 0), 60.0);
}

TEST(BodyChannel, SymmetricLinkSharesOneFade) {
  auto ch = std::make_unique<BodyChannel>(calibrated_body_path_loss(),
                                          BodyChannelParams{}, Rng{23});
  const double ab = ch->path_loss_db(0, 5, 1.0);
  const double ba = ch->path_loss_db(5, 0, 1.0);
  EXPECT_DOUBLE_EQ(ab, ba);
}

TEST(BodyChannel, MeanMatchesMatrixOverTime) {
  BodyChannel ch(calibrated_body_path_loss(), BodyChannelParams{}, Rng{29});
  RunningStats s;
  double t = 0.0;
  for (int i = 0; i < 50'000; ++i) {
    t += 0.5;
    s.add(ch.path_loss_db(0, 3, t));
  }
  EXPECT_NEAR(s.mean(), ch.mean_path_loss_db(0, 3), 0.4);
}

TEST(BodyChannel, SigmaGrowsWithDistanceAndCaps) {
  BodyChannel ch(calibrated_body_path_loss(), BodyChannelParams{}, Rng{31});
  EXPECT_LT(ch.link_sigma_db(kChest, kLeftHip),
            ch.link_sigma_db(kChest, kLeftAnkle));
  EXPECT_LE(ch.link_sigma_db(kHead, kRightAnkle),
            BodyChannelParams{}.sigma_max_db);
}

TEST(BodyChannel, SameSeedSameTrajectory) {
  auto a = make_default_body_channel(99);
  auto b = make_default_body_channel(99);
  for (double t = 0.0; t < 5.0; t += 0.37) {
    EXPECT_DOUBLE_EQ(a->path_loss_db(1, 6, t), b->path_loss_db(1, 6, t));
  }
}

TEST(BodyChannel, DifferentSeedsDiffer) {
  auto a = make_default_body_channel(1);
  auto b = make_default_body_channel(2);
  EXPECT_NE(a->path_loss_db(1, 6, 0.0), b->path_loss_db(1, 6, 0.0));
}

TEST(NormalTape, HoldsTheStreamPrefixAndTheStateAfterIt) {
  Rng stream{41};
  const NormalTape tape(stream, 7);  // odd: the rest holds a spare normal
  ASSERT_EQ(tape.draws().size(), 7u);
  for (const double z : tape.draws()) EXPECT_EQ(z, stream.normal());
  Rng rest = tape.rest();
  for (int k = 0; k < 5; ++k) EXPECT_EQ(rest.normal(), stream.normal());
}

TEST(NormalTape, TapeBackedFadesAndChannelsBitEqualTheStream) {
  Rng rng = Rng{2026}.fork("test.fade_tape");
  for (int i = 0; i < 200; ++i) {
    for (const std::string& v : check::check_fade_tape(rng)) {
      ADD_FAILURE() << "instance " << i << ": " << v;
    }
  }
}

TEST(DecayTable, TableBackedStepsBitEqualThePlainFormula) {
  Rng rng = Rng{2026}.fork("test.decay_table");
  for (int i = 0; i < 200; ++i) {
    for (const std::string& v : check::check_decay_table(rng)) {
      ADD_FAILURE() << "instance " << i << ": " << v;
    }
  }
}

TEST(BodyChannel, DefaultTapesBitEqualTheSeed) {
  auto plain = make_default_body_channel(77);
  auto taped = make_default_body_channel(make_body_tapes(Rng{77}));
  ASSERT_EQ(make_body_tapes(Rng{77})->size(), kNumBodyLinks);
  for (double t = 0.0; t < 30.0; t += 0.013) {
    EXPECT_EQ(plain->path_loss_db(2, 7, t), taped->path_loss_db(7, 2, t));
  }
}

}  // namespace
}  // namespace hi::channel
