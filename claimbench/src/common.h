// Shared pieces of the benchmark: the workload table, the seeded claim stream,
// the serving-stack set-up, the sequential reference that gates correctness,
// process probes, and the report printer.

#ifndef CLAIMBENCH_SRC_COMMON_H_
#define CLAIMBENCH_SRC_COMMON_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/models/model_zoo.h"
#include "src/net/frame.h"
#include "src/protocol/batch_verifier.h"
#include "src/protocol/commitment.h"
#include "src/registry/serving_gateway.h"

namespace tao::claimbench {

// One workload: which claim mix, which coordinator. Every claim mix is balanced
// per block (exactly one supervised claim in every block of `supervise_one_in`,
// exactly one perturbed claim in every block of `perturb_one_in`; proposer and
// verifier profiles and perturbation sites are dealt from seeded shuffles), so
// the cost of the mix does not drift with the seed.
struct WorkloadSpec {
  const char* name = "";
  size_t supervise_one_in = 0;  // 0 = no claim is supervised
  size_t perturb_one_in = 0;    // 0 = every proposer is honest
  bool durable = false;         // coordinator changelog on disk
  size_t warmup_claims = 0;     // verdicts before the timed window opens
};

// Closed loop: one generator (thread or connection) keeps this many claims in
// flight.
inline constexpr size_t kInFlight = 4;
// Claims driven through every rung of the traced ladder: p99 has ten beyond it.
inline constexpr size_t kLadderClaims = 1000;
// Distinct claims drawn per (workload, seed), per perturbation site (any
// operator but the output; 784 claims for BERT-mini); the stream cycles through
// them. Eight per site deals the proposer and verifier profiles and the sites a
// whole number of times, so which sites a seed perturbs does not change the cost
// of the mix.
inline constexpr size_t kPoolClaimsPerSite = 8;

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// The seeded claim pool: the same (workload, seed) gives a bitwise-identical
// pool. Stream position i submits pool[i % pool.size()].
std::vector<BatchClaim> MakeClaimPool(const WorkloadSpec& spec, const Model& model,
                                      uint64_t seed);
bool SameClaim(const BatchClaim& a, const BatchClaim& b);
bool SameTensor(const Tensor& a, const Tensor& b);  // shape and bits

// The fields a verdict must reproduce bitwise for a fixed accepted order.
struct Outcome {
  ClaimId claim_id = 0;
  Digest c0{};
  bool supervised = false;
  bool flagged = false;
  bool guilty = false;
  uint32_t final_state = 0;
  int64_t gas = 0;

  bool operator==(const Outcome&) const = default;
};
Outcome FromBatch(const BatchClaimOutcome& outcome);
Outcome FromWire(const WireVerdict& verdict);

// A committed model: built, calibrated and merkleized.
struct Committed {
  Model model;
  std::unique_ptr<ThresholdSet> thresholds;
  std::unique_ptr<ModelCommitment> commitment;
  double calibrate_s = 0;
  double commit_s = 0;
};
Committed CommitModel();

ServiceOptions MakeServiceOptions();

// A registry + gateway serving one committed model (RPC listening when `wire`).
// Members are ordered so the gateway goes first.
struct Stack {
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<ServingGateway> gateway;
  ModelId id = 0;
};
Stack ServeModel(const Committed& committed, bool wire, const std::string& durable_dir);

// Set-up as a user pays it: build, calibrate and commit the model, register and
// commit it, attach serving capacity. Repeated at least kSetupRounds times and
// until kSetupSeconds have been spent on it, up to kSetupMaxRounds; the stack of
// the last round is kept, earlier ones are torn down outside the timed part.
inline constexpr int kSetupRounds = 5;
inline constexpr double kSetupSeconds = 6.0;
inline constexpr int kSetupMaxRounds = 50;
struct SetUp {
  Committed committed;
  Stack stack;
  std::vector<double> total_s;
  std::vector<double> calibrate_s;
  std::vector<double> commit_s;
};
class WorkDir;
SetUp SetUpRepeatedly(const WorkloadSpec& spec, WorkDir& work);

// The sequential reference every served outcome must equal bitwise: replays the
// stream positions `positions` (in accepted order) through a fresh in-memory
// coordinator, resolving one claim at a time.
std::vector<Outcome> ReferenceReplay(const Committed& committed, ModelId model_id,
                                     const std::vector<BatchClaim>& pool,
                                     const std::vector<size_t>& positions);

// Fresh directories for durable coordinators, removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(std::filesystem::path root);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  std::string NewDir(const std::string& tag);
  // Filesystem type of the work directory (statfs), e.g. "ext4", "overlayfs".
  std::string FsType() const;

 private:
  std::filesystem::path root_;
  int next_ = 0;
};

int64_t NowNs();        // steady clock
double CpuSeconds();    // process user + system time
double ResidentMb();    // current resident set

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

// Prints one human line per metric (value, unit, sample count), then the
// result object as the last line of standard output.
void PrintReport(const Report& report);

}  // namespace tao::claimbench

#endif  // CLAIMBENCH_SRC_COMMON_H_
