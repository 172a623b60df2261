// Cross-module property tests: parameterized sweeps over configuration
// spaces asserting the invariants the reproduction's conclusions rest on.
#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.h"
#include "core/analytical_model.h"
#include "msg/messages.h"
#include "net/wireless_channel.h"
#include "platform/cost_model.h"
#include "platform/platform_spec.h"

namespace lgv {
namespace {

// ---- Eq. 2c: v_max monotone decreasing in tp for every (a_max, d) ----------

struct Eq2cCase {
  double a_max;
  double d;
};

void PrintTo(const Eq2cCase& c, std::ostream* os) {
  *os << "amax" << c.a_max << "_d" << c.d;
}

class Eq2cMonotonicity : public ::testing::TestWithParam<Eq2cCase> {};

TEST_P(Eq2cMonotonicity, VelocityDecreasesWithMakespan) {
  const Eq2cCase c = GetParam();
  double prev = std::numeric_limits<double>::infinity();
  for (double tp = 0.0; tp <= 8.0; tp += 0.1) {
    const double v = core::max_velocity(tp, c.a_max, c.d);
    EXPECT_LT(v, prev) << "tp=" << tp;
    EXPECT_GT(v, 0.0);
    prev = v;
  }
  // Ceiling at tp = 0 equals sqrt(2 d a).
  EXPECT_NEAR(core::max_velocity(0.0, c.a_max, c.d), std::sqrt(2.0 * c.d * c.a_max),
              1e-9);
}

TEST_P(Eq2cMonotonicity, InverseIsConsistent) {
  const Eq2cCase c = GetParam();
  for (double tp : {0.02, 0.2, 1.0, 4.0}) {
    const double v = core::max_velocity(tp, c.a_max, c.d);
    EXPECT_NEAR(core::max_processing_time_for_velocity(v, c.a_max, c.d), tp, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Eq2cMonotonicity,
                         ::testing::Values(Eq2cCase{0.25, 0.5}, Eq2cCase{0.5, 1.0},
                                           Eq2cCase{0.5, 2.0}, Eq2cCase{1.0, 0.5},
                                           Eq2cCase{2.0, 3.0}));

// ---- channel: loss monotone in distance for every path-loss exponent -------

class ChannelLossMonotone : public ::testing::TestWithParam<double> {};

TEST_P(ChannelLossMonotone, LossNeverDecreasesWithDistance) {
  net::ChannelConfig cfg;
  cfg.wap_position = {0.0, 0.0};
  cfg.shadowing_sigma_db = 0.0;
  cfg.path_loss_exponent = GetParam();
  net::WirelessChannel ch(cfg);
  double prev = -1.0;
  for (double d = 1.0; d < 200.0; d *= 1.3) {
    ch.set_robot_position({d, 0.0});
    const double loss = ch.loss_from_snr(ch.snr_db(ch.mean_rssi_dbm()));
    EXPECT_GE(loss, prev - 1e-12) << "d=" << d;
    prev = loss;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);  // far enough is always an outage
}

TEST_P(ChannelLossMonotone, UplinkRateNeverIncreasesWithDistance) {
  net::ChannelConfig cfg;
  cfg.wap_position = {0.0, 0.0};
  cfg.shadowing_sigma_db = 0.0;
  cfg.path_loss_exponent = GetParam();
  net::WirelessChannel ch(cfg);
  double prev = std::numeric_limits<double>::infinity();
  for (double d = 1.0; d < 200.0; d *= 1.3) {
    ch.set_robot_position({d, 0.0});
    const double rate = ch.effective_uplink_bps();
    EXPECT_LE(rate, prev + 1e-6);
    EXPECT_GT(rate, 0.0);
    prev = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ChannelLossMonotone,
                         ::testing::Values(2.5, 3.0, 3.5, 4.5, 6.0));

// ---- serialization: randomized round-trips ---------------------------------

class SerializationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializationFuzz, LaserScanRoundTripsExactly) {
  Rng rng(GetParam());
  msg::LaserScan s;
  s.header.seq = static_cast<uint64_t>(rng.uniform_int(0, 1 << 30));
  s.header.stamp = rng.uniform(0.0, 1e6);
  s.header.frame_id = rng.bernoulli(0.5) ? "base_scan" : "";
  s.angle_min = rng.uniform(-4.0, 0.0);
  s.angle_max = rng.uniform(0.0, 4.0);
  s.angle_increment = rng.uniform(0.001, 0.1);
  s.range_min = rng.uniform(0.01, 0.5);
  s.range_max = rng.uniform(1.0, 10.0);
  const int beams = rng.uniform_int(0, 720);
  for (int i = 0; i < beams; ++i) {
    s.ranges.push_back(static_cast<float>(rng.uniform(0.0, 12.0)));
  }
  EXPECT_EQ(deserialize_from_bytes<msg::LaserScan>(serialize_to_bytes(s)), s);
}

TEST_P(SerializationFuzz, OccupancyGridRoundTripsExactly) {
  Rng rng(GetParam() ^ 0x9999);
  msg::OccupancyGridMsg g;
  g.frame.origin = {rng.uniform(-10, 10), rng.uniform(-10, 10)};
  g.frame.resolution = rng.uniform(0.01, 0.5);
  g.width = rng.uniform_int(1, 60);
  g.height = rng.uniform_int(1, 60);
  for (int i = 0; i < g.width * g.height; ++i) {
    g.data.push_back(static_cast<int8_t>(rng.uniform_int(-1, 100)));
  }
  EXPECT_EQ(deserialize_from_bytes<msg::OccupancyGridMsg>(serialize_to_bytes(g)), g);
}

TEST_P(SerializationFuzz, PathRoundTripsExactly) {
  Rng rng(GetParam() ^ 0x1212);
  msg::PathMsg p;
  const int n = rng.uniform_int(0, 200);
  for (int i = 0; i < n; ++i) {
    p.poses.emplace_back(rng.uniform(-50, 50), rng.uniform(-50, 50),
                         rng.uniform(-3.1, 3.1));
  }
  EXPECT_EQ(deserialize_from_bytes<msg::PathMsg>(serialize_to_bytes(p)), p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---- cost model: more threads never hurt a large balanced kernel -----------

class CostModelScaling : public ::testing::TestWithParam<platform::Host> {};

TEST_P(CostModelScaling, BigKernelMonotoneUpToCoreCount) {
  const platform::PlatformSpec spec = platform::spec_for(GetParam());
  const platform::CostModel model(spec);
  const double work = 50e9;
  double prev = std::numeric_limits<double>::infinity();
  for (int n = 1; n <= spec.cores; n *= 2) {
    platform::WorkProfile p;
    platform::ParallelRegion r;
    r.chunk_cycles.assign(static_cast<size_t>(n), work / n);
    p.add_region(r);
    const double t = model.execution_time(p);
    EXPECT_LT(t, prev) << "threads=" << n;
    prev = t;
  }
}

TEST_P(CostModelScaling, SerializedTimeIsThreadIndependent) {
  const platform::CostModel model(platform::spec_for(GetParam()));
  for (int n : {1, 2, 8}) {
    platform::WorkProfile p;
    platform::ParallelRegion r;
    r.chunk_cycles.assign(static_cast<size_t>(n), 3e9 / n);
    p.add_region(r);
    EXPECT_NEAR(model.serialized_time(p), 3e9 / model.spec().single_thread_ops_per_sec(),
                1e-9);
  }
}

TEST_P(CostModelScaling, EnergyIndependentOfSchedule) {
  const platform::CostModel model(platform::spec_for(GetParam()));
  platform::WorkProfile serial;
  serial.add_serial(2e9);
  platform::WorkProfile parallel;
  platform::ParallelRegion r;
  r.chunk_cycles.assign(8, 0.25e9);
  parallel.add_region(r);
  EXPECT_NEAR(model.dynamic_energy(serial), model.dynamic_energy(parallel), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Platforms, CostModelScaling,
                         ::testing::Values(platform::Host::kLgv,
                                           platform::Host::kEdgeGateway,
                                           platform::Host::kCloudServer));

// ---- geometry: compose/between closure over random poses -------------------

class PoseAlgebra : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoseAlgebra, ComposeBetweenClosure) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Pose2D a{rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-3.1, 3.1)};
    const Pose2D b{rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-3.1, 3.1)};
    const Pose2D c = a.compose(a.between(b));
    EXPECT_NEAR(c.x, b.x, 1e-9);
    EXPECT_NEAR(c.y, b.y, 1e-9);
    EXPECT_NEAR(angle_diff(c.theta, b.theta), 0.0, 1e-9);
  }
}

TEST_P(PoseAlgebra, TransformInverseTransformIdentity) {
  Rng rng(GetParam() ^ 0xfeed);
  for (int i = 0; i < 50; ++i) {
    const Pose2D p{rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3.1, 3.1)};
    const Point2D q{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Point2D back = p.inverse_transform(p.transform(q));
    EXPECT_NEAR(back.x, q.x, 1e-9);
    EXPECT_NEAR(back.y, q.y, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoseAlgebra, ::testing::Values(7u, 77u, 777u));

}  // namespace
}  // namespace lgv
