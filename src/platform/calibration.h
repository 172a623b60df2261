// Every tuned constant of the reproduction in one place.
//
// The algorithms in src/perception, src/planning and src/control count the
// *actual* primitive operations they perform (beam likelihood evaluations,
// trajectory simulation steps, costmap cell updates, …). These constants map
// one primitive operation to CPU cycles, fitted so that the default workload
// configuration (360-beam LDS scans, 30 SLAM particles, 2000 rollout
// samples, 0.05 m costmap over the lab) lands on the paper's Table II
// per-invocation cycle breakdown:
//   with a map:    Localization(laser) 0.028 G, CostmapGen 0.857 G,
//                  PathPlanning 0.055 G, PathTracking 1.385 G
//   without a map: SLAM 3.327 G, CostmapGen 0.685 G, PathPlanning 0.052 G,
//                  Exploration 0.011 G, PathTracking 1.207 G
// Changing workload parameters (particles, samples, beam count) moves the
// derived numbers exactly as it would on real hardware; only the per-op
// constants here are fitted.
#pragma once

namespace lgv::platform::calib {

// ---- SLAM (gmapping-style RBPF, Fig. 6) -----------------------------------
/// Cycles per (particle × beam) likelihood evaluation inside scanMatch, where
/// 98% of SLAM time lives (§V). Priced for the likelihood-field scorer:
/// precomputed endpoints + one field lookup in place of the per-beam trig and
/// the 3×3 occupancy probe of the paper's stock GMapping scorer, at the
/// bench_micro_kernels host speedup of BM_ScanMatchScoreCached over the
/// brute-force reference BM_ScanMatchScore.
inline constexpr double kScanMatchCachedCyclesPerBeamEval = 10000.0;
/// Cycles per likelihood-field cell recomputed by LikelihoodField::sync
/// (9 occupancy compares + a packed write; incremental after every map
/// update, full grid on first build).
inline constexpr double kFieldRebuildCyclesPerCell = 800.0;
/// Cycles per map cell touched while integrating a scan into a particle map.
inline constexpr double kMapUpdateCyclesPerCell = 4000.0;
/// Cycles per particle for the sequential weight bookkeeping + resampling.
inline constexpr double kResampleCyclesPerParticle = 500000.0;

// ---- AMCL -----------------------------------------------------------------
/// Cycles per feature observation VisualOdometry associates against its
/// landmark map. It keeps the per-beam price of the brute-force AMCL
/// measurement model it was sized by; AMCL itself charges the constant below.
inline constexpr double kAmclCyclesPerBeamEval = 2000.0;
/// Cycles per (particle × beam) in AMCL's likelihood-field measurement model
/// (endpoints precomputed once per scan, shared across every particle).
inline constexpr double kAmclCachedCyclesPerBeamEval = 500.0;
/// Cycles per particle for sampling the motion model.
inline constexpr double kAmclMotionCyclesPerParticle = 3000.0;

// ---- Costmap generation (costmap_2d analog) --------------------------------
/// Cycles per cell marked/cleared by the obstacle layer raytrace.
inline constexpr double kCostmapRaytraceCyclesPerCell = 20000.0;
/// Cycles per cell visited by the inflation layer wavefront.
inline constexpr double kInflationCyclesPerCell = 40000.0;

// ---- Path tracking (trajectory rollout, Fig. 5) ----------------------------
/// Cycles per forward-simulation step of one candidate trajectory.
inline constexpr double kRolloutCyclesPerStep = 35000.0;
/// Cycles per trajectory for scoring bookkeeping outside the sim loop.
inline constexpr double kRolloutCyclesPerTrajectory = 40000.0;

// ---- Global planning (A*/Dijkstra) -----------------------------------------
/// Cycles per node expansion in the grid search.
inline constexpr double kSearchCyclesPerExpansion = 2500.0;

// ---- Exploration (frontier detection) ---------------------------------------
/// Cycles per cell scanned during frontier extraction.
inline constexpr double kFrontierCyclesPerCell = 900.0;

// ---- Velocity multiplexer ----------------------------------------------------
/// Cycles per command arbitration (tiny by design — the paper reports "-"
/// for its share of the cycle budget).
inline constexpr double kVelMuxCyclesPerCommand = 15000.0;

// ---- Energy model (Eq. 1c) ---------------------------------------------------
/// Effective switched capacitance k in P = k · L · f², with L in cycles/s and
/// f in GHz. Fitted so the RPi at full 4-core load (4 × 1.4 GHz × 0.6 IPC =
/// 3.36 G useful cycles/s) draws ≈ the Table I embedded-computer budget of
/// 6.5 W above idle: 6.5 − 1.9 ≈ k · 3.36e9 · 1.4².
inline constexpr double kSwitchedCapacitance = 7.0e-10;
/// Idle floor of the embedded computer (W); present even when standing by.
inline constexpr double kEmbeddedIdlePowerW = 1.9;

// ---- Wireless transmission (Eq. 1b) -----------------------------------------
/// Transmit power of the Pi's wireless controller (W).
inline constexpr double kTransmitPowerW = 1.3;

// ---- Motor model (Eq. 1d, constants from Mei et al. [34]) -------------------
// Fitted so (a) peak motor power at 1 m/s ≈ Table I's 6.7 W budget and
// (b) the speed-dependent term m·g·μ·v dominates the transforming loss —
// which makes motor energy ≈ m·g·μ·distance, nearly invariant to mission
// time. That invariance is the paper's Fig. 13 observation ("almost no
// performance improvement on motor energy").
inline constexpr double kRobotMassKg = 1.8;          // Turtlebot3 burger
inline constexpr double kGroundFriction = 0.35;      // μ, rubber on lab floor
inline constexpr double kGravity = 9.81;             // g
inline constexpr double kTransformingLossW = 0.35;   // Pl, drivetrain loss

// ---- Eq. 2c parameters -------------------------------------------------------
/// Maximum acceleration limit a_max of Eq. 2c (m/s²).
inline constexpr double kMaxAccel = 0.5;
/// Required stopping distance d for obstacle avoidance (m). With a_max these
/// set the zero-latency velocity ceiling √(2·d·a_max) = 1.0 m/s.
inline constexpr double kStoppingDistance = 1.0;

}  // namespace lgv::platform::calib
