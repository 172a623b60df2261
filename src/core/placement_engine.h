// Multi-tier placement engine: prices "which host runs which node" plans for
// an N-host HostTopology over the computation DAG and picks the cheapest by
// exact enumeration, cheaply enough to run every adjustment epoch.
//
// Two layers:
//
//  1. Cost tables — per-(node, host) compute seconds and per-(edge, host
//     pair) transfer seconds (plus the RTT-threshold penalty), precomputed
//     from the Table III cost models and the topology's link observables.
//     The engine owns its DAG, so only the topology can move: tables are
//     stamped with its generation (like the LikelihoodField's map-version
//     invalidation), and feeding back unchanged observations rebuilds
//     nothing.
//
//  2. Exact search — an odometer over the free (unpinned) nodes prices every
//     assignment with the full reference evaluation. The live DAG has 5 free
//     nodes, so three hosts give 3^5 = 243 plans; the constructor rejects
//     plan spaces beyond kMaxPlans. Algorithm 1's two-host answer is priced
//     first and wins ties, so the engine never returns a plan worse than it.
//
// The modeled objective is the additive pipeline makespan (Σ node compute +
// Σ edge transfer, matching the paper's additive VDP makespan) plus two
// soft-constraint terms from the WOA formulation (SNIPPETS.md Snippets 2–3):
// an RTT-threshold penalty on edges whose path latency exceeds the control
// deadline, and a capacity penalty on links offered more bytes/s than they
// carry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/soa.h"
#include "core/host_topology.h"

namespace lgv::telemetry {
class Counter;
class Telemetry;
}

namespace lgv::core {

/// The computation graph being placed. Node storage is SoA; `kFreeHost`
/// marks a node the search may move, anything else pins it (the velocity
/// mux never leaves the vehicle).
struct PlacementDag {
  static constexpr uint8_t kFreeHost = 0xff;

  struct Edge {
    uint32_t src = 0;
    uint32_t dst = 0;
    double bytes = 0.0;    ///< payload per activation
    double rate_hz = 5.0;  ///< activations per second (offered-load pricing)
  };

  std::vector<std::string> names;
  aligned_vector<double> serial_cycles;
  aligned_vector<double> parallel_cycles;
  aligned_vector<uint8_t> pinned;  ///< kFreeHost or a host index
  std::vector<Edge> edges;

  int add_node(std::string name, double serial, double parallel,
               uint8_t pin = kFreeHost);
  void add_edge(int src, int dst, double bytes, double rate_hz = 5.0);

  size_t node_count() const { return serial_cycles.size(); }
};

/// One priced placement: the flat assignment plus its cost terms.
struct PlacementCandidate {
  aligned_vector<uint8_t> host;  ///< host index per node
  double compute_s = 0.0;
  double transfer_s = 0.0;
  double rtt_penalty_s = 0.0;
  double capacity_penalty_s = 0.0;

  double cost() const {
    return compute_s + transfer_s + rtt_penalty_s + capacity_penalty_s;
  }
};

struct PlacementResult {
  std::vector<uint8_t> assignment;  ///< host index per node
  double cost_s = 0.0;              ///< modeled makespan + penalties
  double seed_cost_s = 0.0;         ///< the seed (or incumbent) plan's cost
  uint64_t plans_priced = 0;        ///< full O(N+E+H²) pricings this call
  /// Deterministic modeled compute time of the solve itself on the vehicle
  /// (what the adjustment epoch pays — the < 10 ms budget).
  double modeled_solve_s = 0.0;
  bool improved = false;  ///< found something cheaper than the seed plan
};

class PlacementEngine {
 public:
  /// Largest plan space (host_count ^ free nodes) the engine enumerates:
  /// 4096 pricings of a pipeline-sized DAG stay inside the 10 ms epoch
  /// budget on the vehicle model. The live pipeline on three hosts has 243.
  static constexpr uint64_t kMaxPlans = 4096;

  /// Throws std::invalid_argument when the plan space exceeds kMaxPlans.
  PlacementEngine(PlacementDag dag, HostTopology topology);

  const PlacementDag& dag() const { return dag_; }
  const HostTopology& topology() const { return topology_; }
  /// Mutable so link observations can be fed live; the next refresh_tables()
  /// (called internally by every solve) picks up the new generation.
  HostTopology& topology() { return topology_; }

  /// placement.solve spans + placement_solves_total /
  /// placement_delta_evals_total (plans priced) counters; nullptr
  /// disconnects.
  void set_telemetry(telemetry::Telemetry* telemetry);

  // ---- cost tables ----
  /// Rebuild the compute/transfer/penalty tables iff the topology generation
  /// moved since the last build. Returns true when work was done.
  bool refresh_tables();
  uint64_t table_rebuilds() const { return table_rebuilds_; }

  /// Reference total cost of an assignment (used by tests and benches).
  double full_cost(const std::vector<uint8_t>& assignment);

  // ---- search ----
  /// Exact solve: prices the seed (Algorithm 1's two-host plan in
  /// production; anything valid in tests), then every assignment of the
  /// free nodes, and keeps the cheapest. The seed wins ties, otherwise the
  /// first plan in odometer order (first free node fastest) does — so the
  /// result is deterministic and never worse than the seed.
  PlacementResult solve(const std::vector<uint8_t>& seed_assignment);
  /// Re-trigger path Algorithm 2 / ApSelector handoffs invoke. Returns the
  /// incumbent without pricing anything when the tables have not been
  /// rebuilt since it was chosen (the optimum cannot have moved); otherwise
  /// re-enumerates with the incumbent winning ties. Requires a prior solve().
  PlacementResult reoptimize();

  bool has_incumbent() const { return !best_.host.empty(); }
  const PlacementCandidate& incumbent() const { return best_; }
  uint64_t solves_total() const { return solves_total_; }

 private:
  int hosts() const { return topology_.host_count(); }
  /// Price `c` from its assignment: the O(N + E + H²) full evaluation.
  void price(PlacementCandidate& c);
  /// Make `start` the incumbent, then enumerate every plan and keep the
  /// strictly cheaper ones (see solve()).
  PlacementResult enumerate(const std::vector<uint8_t>& start);
  void record_solve(const PlacementResult& r, const char* mode);

  PlacementDag dag_;
  HostTopology topology_;
  telemetry::Telemetry* telemetry_ = nullptr;

  // Tables (rebuilt when the topology generation moves).
  aligned_vector<double> compute_table_;  ///< node × host seconds
  /// edge × src host × dst host × {transfer s, rtt penalty s}, interleaved.
  aligned_vector<double> edge_table_;
  aligned_vector<double> inv_capacity_;   ///< 1/bandwidth per link (0 = free)
  std::vector<double> link_load_;         ///< price() scratch: bytes/s per link
  uint64_t built_topology_generation_ = 0;
  uint64_t table_rebuilds_ = 0;

  std::vector<size_t> free_nodes_;  ///< unpinned node indices (the odometer digits)
  PlacementCandidate best_;
  uint64_t incumbent_tables_ = 0;   ///< table_rebuilds_ when best_ was chosen
  uint64_t solves_total_ = 0;

  // Telemetry handles (null when disconnected).
  telemetry::Counter* solves_counter_ = nullptr;
  telemetry::Counter* delta_evals_counter_ = nullptr;
};

/// Build the Fig. 2 pipeline as a PlacementDag: per-node cycles from the
/// profiled WorkMeter shares (Table II) scaled to `cycles_per_activation`,
/// message sizes from the real wire payloads, the velocity mux pinned to the
/// vehicle (host 0). Used by OffloadRuntime's multi-tier mode and the bench.
PlacementDag make_pipeline_dag();

}  // namespace lgv::core
