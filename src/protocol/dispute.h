// The end-to-end TAO protocol driver: optimistic execution (Phase 1), Merkle-anchored
// threshold-guided dispute localization (Phase 2), and single-operator adjudication
// (Phase 3), orchestrated against the Coordinator.
//
// The driver embodies both parties:
//   * the proposer executes the model on its device — optionally injecting the
//     adversarial perturbations of Sec. 4 — commits C0, and answers dispute rounds by
//     posting canonical partitions with interface commitments and Merkle proofs;
//   * the challenger re-executes, triggers a dispute when the output violates the
//     committed empirical thresholds, verifies the per-round proofs, re-executes
//     children from agreed boundaries, and selects the first offending child (Eq. 15)
//     until a single operator remains.
// It also gathers every statistic the paper's evaluation reports: rounds, Merkle proof
// checks, per-round substep wall-clock, challenger FLOPs (DCR), cost ratio, and gas.

#ifndef TAO_SRC_PROTOCOL_DISPUTE_H_
#define TAO_SRC_PROTOCOL_DISPUTE_H_

#include <map>
#include <optional>
#include <vector>

#include "src/graph/executor.h"
#include "src/graph/subgraph.h"
#include "src/models/model_zoo.h"
#include "src/protocol/adjudication.h"
#include "src/protocol/commitment.h"
#include "src/protocol/coordinator.h"

namespace tao {

struct DisputeOptions {
  int64_t partition_n = 2;         // N-way partition width
  uint64_t challenge_window = 100; // logical ticks
  double proposer_bond = 10.0;
  double challenger_bond = 2.0;
  double challenger_share = 0.5;
  AdjudicationOptions adjudication;
  // Runtime policy (src/runtime/): with num_threads > 1 the phase-1 proposer and
  // challenger executions run concurrently on the shared pool, per-round Merkle proof
  // verification fans out, and every (re-)execution splits its kernels' outer loops.
  // Traces, verdicts, rounds, flops, and gas are identical for any value — the
  // protocol compares exact values and the runtime is bitwise deterministic.
  int num_threads = 1;
  // Coordinator shard the claim is homed to at submission (taken mod num_shards; all
  // later actions route by the assigned id). The service's per-shard resolve lanes
  // pass their lane index; standalone drivers leave it 0.
  uint64_t coordinator_shard = 0;
};

struct RoundStats {
  int64_t round = 0;
  int64_t slice_size = 0;
  int64_t children = 0;
  int64_t selected_child = -1;
  int64_t merkle_proofs = 0;
  int64_t children_reexecuted = 0;
  int64_t reexec_flops = 0;
  double proposer_partition_ms = 0.0;
  double challenger_selection_ms = 0.0;
};

struct DisputeResult {
  ClaimId claim_id = 0;
  bool challenge_raised = false;
  bool proposer_guilty = false;
  ClaimState final_state = ClaimState::kCommitted;
  NodeId leaf_op = -1;
  LeafVerdict leaf;
  int64_t rounds = 0;
  int64_t total_merkle_checks = 0;
  // DCR: challenger FLOPs spent inside the dispute game (child re-executions + leaf).
  int64_t challenger_flops = 0;
  double cost_ratio = 0.0;  // DCR / one model forward
  int64_t gas_used = 0;     // gas attributable to this claim's lifecycle
  std::vector<RoundStats> round_stats;
};

class DisputeGame {
 public:
  DisputeGame(const Model& model, const ModelCommitment& commitment,
              const ThresholdSet& thresholds, Coordinator& coordinator,
              DisputeOptions options = {});

  // Runs the full lifecycle for one request. `perturbations` is the malicious
  // proposer's injection set (empty = honest). The proposer runs on
  // `proposer_device`, the challenger on `challenger_device`.
  DisputeResult Run(const std::vector<Tensor>& inputs, const DeviceProfile& proposer_device,
                    const DeviceProfile& challenger_device,
                    const std::vector<Executor::Perturbation>& perturbations = {});

  // Everything after phase 1: commitment submission, the output threshold check, and
  // — when the check flags the claim — the full dispute pipeline. `proposer_trace`
  // and `challenger_output` are the phase-1 execution results, computed either by
  // Run() above or externally (the BatchVerifier lowers K claims' phase-1 runs into
  // one scheduler DAG and feeds each result here); `c0` is the proposer's result
  // commitment over that trace's output. Outcomes are identical to Run() because the
  // runtime is bitwise deterministic, so where phase 1 executed cannot matter.
  // `precomputed_flagged`, when set, is the caller's already-evaluated output
  // threshold verdict (the check is deterministic, so passing it skips a duplicate
  // evaluation); when unset, the check runs here. With `precomputed_flagged ==
  // false` the happy path reads nothing from `proposer_trace`, so callers may pass
  // an empty trace — the BatchVerifier drops unflagged lane traces on this basis.
  DisputeResult RunFromPhase1(const std::vector<Tensor>& inputs,
                              const DeviceProfile& challenger_device,
                              const ExecutionTrace& proposer_trace,
                              const Tensor& challenger_output, const Digest& c0,
                              std::optional<bool> precomputed_flagged = std::nullopt);

 private:
  const Model& model_;
  const ModelCommitment& commitment_;
  const ThresholdSet& thresholds_;
  Coordinator& coordinator_;
  DisputeOptions options_;
};

}  // namespace tao

#endif  // TAO_SRC_PROTOCOL_DISPUTE_H_
