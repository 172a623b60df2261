#include "core/placement_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/telemetry/telemetry.h"

namespace lgv::core {

namespace {

/// Cost assigned to assignments that violate a pin or route over a dead
/// link: large enough that any feasible plan beats any infeasible one.
constexpr double kUnplaceable = 1e6;

/// Objective weights (the WOA formulation's soft constraints).
constexpr double kRttThresholdS = 0.1;       ///< control deadline
constexpr double kRttPenaltyWeight = 4.0;    ///< seconds per second of excess RTT
constexpr double kCapacityPenaltyS = 2.0;    ///< seconds per unit link overload

/// Modeled cycle price of one full plan pricing, per (node + edge + link)
/// unit, charged to the vehicle's cost model so a solve has a deterministic
/// virtual cost (the < 10 ms adjustment-epoch budget). Calibrated from
/// measured ns/eval on commodity x86 scaled to the RPi's IPC.
constexpr double kCyclesPerFullEvalUnit = 25.0;

}  // namespace

// ---------------------------------------------------------------------------
// PlacementDag

int PlacementDag::add_node(std::string name, double serial, double parallel,
                           uint8_t pin) {
  names.push_back(std::move(name));
  serial_cycles.push_back(serial);
  parallel_cycles.push_back(parallel);
  pinned.push_back(pin);
  return static_cast<int>(serial_cycles.size()) - 1;
}

void PlacementDag::add_edge(int src, int dst, double bytes, double rate_hz) {
  edges.push_back(Edge{static_cast<uint32_t>(src), static_cast<uint32_t>(dst),
                       bytes, rate_hz});
}

// ---------------------------------------------------------------------------
// PlacementEngine

PlacementEngine::PlacementEngine(PlacementDag dag, HostTopology topology)
    : dag_(std::move(dag)), topology_(std::move(topology)) {
  assert(topology_.host_count() > 0 && topology_.host_count() <= 255);
  uint64_t plans = 1;
  for (size_t i = 0; i < dag_.node_count(); ++i) {
    if (dag_.pinned[i] != PlacementDag::kFreeHost) continue;
    free_nodes_.push_back(i);
    plans *= static_cast<uint64_t>(hosts());
    if (plans > kMaxPlans) {
      throw std::invalid_argument(
          "PlacementEngine: more than " + std::to_string(kMaxPlans) +
          " plans to enumerate (" + std::to_string(hosts()) + " hosts, " +
          std::to_string(free_nodes_.size()) + "+ free nodes)");
    }
  }
  refresh_tables();
}

void PlacementEngine::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr || !telemetry_->enabled()) {
    telemetry_ = nullptr;
    solves_counter_ = nullptr;
    delta_evals_counter_ = nullptr;
    return;
  }
  auto& m = telemetry_->metrics();
  solves_counter_ = &m.counter("placement_solves_total");
  delta_evals_counter_ = &m.counter("placement_delta_evals_total");
}

bool PlacementEngine::refresh_tables() {
  if (table_rebuilds_ > 0 &&
      built_topology_generation_ == topology_.generation()) {
    return false;
  }
  const size_t n = dag_.node_count();
  const size_t h = static_cast<size_t>(hosts());

  compute_table_.assign(n * h, 0.0);
  for (size_t node = 0; node < n; ++node) {
    for (size_t host = 0; host < h; ++host) {
      if (dag_.pinned[node] != PlacementDag::kFreeHost &&
          dag_.pinned[node] != host) {
        compute_table_[node * h + host] = kUnplaceable;
        continue;
      }
      const platform::PlatformSpec& spec = topology_.cost_model(
          static_cast<int>(host)).spec();
      const int threads = std::max(1, topology_.host(static_cast<int>(host)).threads);
      const double ops = spec.single_thread_ops_per_sec();
      double t = dag_.serial_cycles[node] / ops;
      if (dag_.parallel_cycles[node] > 0.0) {
        t += dag_.parallel_cycles[node] / (ops * spec.parallel_throughput(threads)) +
             spec.dispatch_overhead_s * threads;
      }
      compute_table_[node * h + host] = t;
    }
  }

  edge_table_.assign(dag_.edges.size() * h * h * 2, 0.0);
  inv_capacity_.assign(h * h, 0.0);
  for (size_t s = 0; s < h; ++s) {
    for (size_t d = 0; d < h; ++d) {
      const TopologyLink& l = topology_.link(static_cast<int>(s), static_cast<int>(d));
      inv_capacity_[s * h + d] =
          (s == d || std::isinf(l.bandwidth_bps) || l.bandwidth_bps <= 0.0)
              ? 0.0
              : 1.0 / l.bandwidth_bps;
    }
  }
  for (uint32_t e = 0; e < dag_.edges.size(); ++e) {
    const PlacementDag::Edge& edge = dag_.edges[e];
    for (size_t s = 0; s < h; ++s) {
      for (size_t d = 0; d < h; ++d) {
        const size_t idx = ((static_cast<size_t>(e) * h + s) * h + d) * 2;
        if (s == d) continue;  // co-located: free, no penalty
        const TopologyLink& l =
            topology_.link(static_cast<int>(s), static_cast<int>(d));
        if (!(l.bandwidth_bps > 0.0)) {
          edge_table_[idx] = kUnplaceable;
          continue;
        }
        // One-way serialization + half the RTT, inflated by expected
        // retransmissions on a lossy link.
        const double loss_factor = 1.0 / std::max(1e-3, 1.0 - l.loss);
        edge_table_[idx] =
            (edge.bytes / l.bandwidth_bps) * loss_factor + 0.5 * l.rtt_s;
        const double excess = l.rtt_s - kRttThresholdS;
        if (excess > 0.0) edge_table_[idx + 1] = kRttPenaltyWeight * excess;
      }
    }
  }

  built_topology_generation_ = topology_.generation();
  ++table_rebuilds_;
  return true;
}

void PlacementEngine::price(PlacementCandidate& c) {
  const size_t n = dag_.node_count();
  const size_t h = static_cast<size_t>(hosts());
  assert(c.host.size() == n);
  link_load_.assign(h * h, 0.0);
  c.compute_s = 0.0;
  c.transfer_s = 0.0;
  c.rtt_penalty_s = 0.0;
  c.capacity_penalty_s = 0.0;
  for (size_t node = 0; node < n; ++node) {
    c.compute_s += compute_table_[node * h + c.host[node]];
  }
  for (uint32_t e = 0; e < dag_.edges.size(); ++e) {
    const PlacementDag::Edge& edge = dag_.edges[e];
    const uint8_t s = c.host[edge.src];
    const uint8_t d = c.host[edge.dst];
    const double* cost = &edge_table_[((e * h + s) * h + d) * 2];
    c.transfer_s += cost[0];
    c.rtt_penalty_s += cost[1];
    if (s != d) link_load_[s * h + d] += edge.bytes * edge.rate_hz;
  }
  // Self links and unconstrained links have inv_capacity_ 0: no penalty.
  for (size_t l = 0; l < h * h; ++l) {
    const double util = link_load_[l] * inv_capacity_[l];
    c.capacity_penalty_s += util > 1.0 ? kCapacityPenaltyS * (util - 1.0) : 0.0;
  }
}

double PlacementEngine::full_cost(const std::vector<uint8_t>& assignment) {
  refresh_tables();
  PlacementCandidate c;
  c.host.assign(assignment.begin(), assignment.end());
  price(c);
  return c.cost();
}

PlacementResult PlacementEngine::enumerate(const std::vector<uint8_t>& start) {
  assert(start.size() == dag_.node_count());
  refresh_tables();
  best_.host.assign(start.begin(), start.end());
  price(best_);
  incumbent_tables_ = table_rebuilds_;

  PlacementResult result;
  result.seed_cost_s = best_.cost();
  result.plans_priced = 1;
  PlacementCandidate plan;
  plan.host.resize(dag_.node_count());
  for (size_t i = 0; i < dag_.node_count(); ++i) {
    plan.host[i] = dag_.pinned[i] == PlacementDag::kFreeHost ? 0 : dag_.pinned[i];
  }
  const uint8_t last_host = static_cast<uint8_t>(hosts() - 1);
  for (;;) {
    price(plan);
    ++result.plans_priced;
    if (plan.cost() < best_.cost()) best_ = plan;
    // Advance the odometer: the first free node is the fastest digit.
    size_t digit = 0;
    for (; digit < free_nodes_.size(); ++digit) {
      uint8_t& host = plan.host[free_nodes_[digit]];
      if (host < last_host) {
        ++host;
        break;
      }
      host = 0;
    }
    if (digit == free_nodes_.size()) break;
  }

  result.assignment.assign(best_.host.begin(), best_.host.end());
  result.cost_s = best_.cost();
  result.improved = result.cost_s < result.seed_cost_s - 1e-12;
  // Deterministic modeled cost of the solve on the vehicle's silicon.
  const double eval_unit = static_cast<double>(
      dag_.node_count() + dag_.edges.size() +
      static_cast<size_t>(hosts()) * static_cast<size_t>(hosts()));
  result.modeled_solve_s =
      static_cast<double>(result.plans_priced) * kCyclesPerFullEvalUnit * eval_unit /
      topology_.cost_model(0).spec().single_thread_ops_per_sec();
  return result;
}

PlacementResult PlacementEngine::solve(const std::vector<uint8_t>& seed_assignment) {
  PlacementResult result = enumerate(seed_assignment);
  ++solves_total_;
  record_solve(result, "solve");
  return result;
}

PlacementResult PlacementEngine::reoptimize() {
  assert(has_incumbent() && "reoptimize requires a prior solve()");
  refresh_tables();
  PlacementResult result;
  if (table_rebuilds_ == incumbent_tables_) {
    // Same tables the incumbent was chosen under: it is still the optimum.
    result.assignment.assign(best_.host.begin(), best_.host.end());
    result.cost_s = best_.cost();
    result.seed_cost_s = result.cost_s;
  } else {
    result = enumerate(std::vector<uint8_t>(best_.host.begin(), best_.host.end()));
  }
  ++solves_total_;
  record_solve(result, "reoptimize");
  return result;
}

void PlacementEngine::record_solve(const PlacementResult& r, const char* mode) {
  if (solves_counter_ != nullptr) solves_counter_->inc();
  if (delta_evals_counter_ != nullptr) delta_evals_counter_->inc(r.plans_priced);
  if (telemetry_ != nullptr) {
    const double improvement =
        r.seed_cost_s > 0.0 ? (r.seed_cost_s - r.cost_s) / r.seed_cost_s : 0.0;
    telemetry_->tracer().span(
        "placement.solve", "lgv", "placement", telemetry_->now(),
        r.modeled_solve_s,
        {{"mode", mode},
         {"plans_priced", std::to_string(r.plans_priced)},
         {"cost_s", std::to_string(r.cost_s)},
         {"improvement", std::to_string(improvement)}});
  }
}

// ---------------------------------------------------------------------------
// The Fig. 2 pipeline as a placement DAG.

PlacementDag make_pipeline_dag() {
  PlacementDag d;
  // Nodes in all_nodes() order (NodeId ↔ dag index for the runtime mapping),
  // cycles per activation in Table II proportions: SLAM and the VDP kernels
  // carry the parallel work, planning/exploration are serial and sparse.
  const int loc = d.add_node("localization", 2.0e6, 38.0e6);
  const int cg = d.add_node("costmap_gen", 1.0e6, 9.0e6);
  const int pp = d.add_node("path_planning", 4.0e6, 0.0);
  const int ex = d.add_node("exploration", 1.5e6, 0.0);
  const int pt = d.add_node("path_tracking", 1.0e6, 17.0e6);
  const int mux = d.add_node("velocity_mux", 0.05e6, 0.0, 0);  // never leaves
  // The sensor source: zero compute, pinned to the vehicle — what prices the
  // scan uplink when consumers go remote.
  const int lidar = d.add_node("lidar_driver", 0.0, 0.0, 0);

  d.add_edge(lidar, loc, 3000.0, 5.0);  // LaserScan at 5 Hz
  d.add_edge(lidar, cg, 3000.0, 5.0);
  d.add_edge(loc, cg, 48.0, 5.0);       // pose correction
  d.add_edge(loc, pp, 48.0, 0.5);
  d.add_edge(loc, ex, 48.0, 0.5);
  d.add_edge(cg, pp, 8192.0, 0.5);      // costmap snapshot at replan cadence
  d.add_edge(cg, pt, 8192.0, 5.0);      // costmap window every tick
  d.add_edge(ex, pp, 48.0, 0.5);
  d.add_edge(pp, pt, 1024.0, 0.5);      // path
  d.add_edge(pt, mux, 48.0, 5.0);       // velocity command
  return d;
}

}  // namespace lgv::core
