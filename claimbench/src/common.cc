#include "claimbench/src/common.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "src/calib/calibrator.h"

namespace tao::claimbench {
namespace {

double SecondsSince(int64_t begin_ns) { return static_cast<double>(NowNs() - begin_ns) / 1e9; }

// FNV-1a: gives each workload its own claim stream for a shared seed.
uint64_t NameSalt(const char* name) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = name; *c != '\0'; ++c) {
    hash = (hash ^ static_cast<uint8_t>(*c)) * 0x100000001b3ULL;
  }
  return hash;
}

// Draws from a seeded shuffle of [0, n), reshuffled every n draws, so every
// value is used equally often whatever the seed.
class Deck {
 public:
  explicit Deck(size_t n) : n_(n) {}
  size_t Draw(Rng& rng) {
    if (drawn_ % n_ == 0) {
      order_ = rng.Permutation(n_);
    }
    return order_[drawn_++ % n_];
  }

 private:
  size_t n_;
  std::vector<size_t> order_;
  size_t drawn_ = 0;
};

}  // namespace

bool SameTensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(float)) == 0;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {.name = "bert-honest",
       .supervise_one_in = 2,
       .perturb_one_in = 0,
       .durable = false,
       .warmup_claims = 64},
      {.name = "bert-dispute",
       .supervise_one_in = 1,
       .perturb_one_in = 2,
       .durable = true,
       .warmup_claims = 32},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<BatchClaim> MakeClaimPool(const WorkloadSpec& spec, const Model& model,
                                      uint64_t seed) {
  const Graph& graph = *model.graph;
  const auto& fleet = DeviceRegistry::Fleet();
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + NameSalt(spec.name));
  // Picks the one marked claim of each block when the block starts.
  auto marked = [&rng](size_t i, size_t one_in, size_t& slot) {
    if (one_in == 0) {
      return false;
    }
    if (i % one_in == 0) {
      slot = i + rng.NextBounded(one_in);
    }
    return i == slot;
  };
  Deck proposers(fleet.size());
  Deck verifiers(fleet.size());
  const size_t num_sites = static_cast<size_t>(graph.num_ops() - 1);
  Deck sites(num_sites);
  size_t perturb_slot = 0;
  size_t supervise_slot = 0;
  const size_t pool_claims = kPoolClaimsPerSite * num_sites;
  std::vector<BatchClaim> pool;
  pool.reserve(pool_claims);
  for (size_t i = 0; i < pool_claims; ++i) {
    BatchClaim claim;
    claim.inputs = model.sample_input(rng);
    claim.proposer_device = &fleet[proposers.Draw(rng)];
    if (marked(i, spec.perturb_one_in, perturb_slot)) {
      const NodeId site = graph.op_nodes()[sites.Draw(rng)];
      Rng delta_rng(rng.NextU64());
      claim.perturbations.push_back(
          {site, Tensor::Randn(graph.node(site).shape, delta_rng, 5e-2f)});
    }
    if (marked(i, spec.supervise_one_in, supervise_slot)) {
      claim.verifier_device = &fleet[verifiers.Draw(rng)];
    }
    pool.push_back(std::move(claim));
  }
  return pool;
}

bool SameClaim(const BatchClaim& a, const BatchClaim& b) {
  if (a.proposer_device != b.proposer_device || a.verifier_device != b.verifier_device ||
      a.inputs.size() != b.inputs.size() || a.perturbations.size() != b.perturbations.size()) {
    return false;
  }
  for (size_t i = 0; i < a.inputs.size(); ++i) {
    if (!SameTensor(a.inputs[i], b.inputs[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.perturbations.size(); ++i) {
    if (a.perturbations[i].node != b.perturbations[i].node ||
        !SameTensor(a.perturbations[i].delta, b.perturbations[i].delta)) {
      return false;
    }
  }
  return true;
}

Outcome FromBatch(const BatchClaimOutcome& outcome) {
  return {.claim_id = outcome.claim_id,
          .c0 = outcome.c0,
          .supervised = outcome.supervised,
          .flagged = outcome.flagged,
          .guilty = outcome.proposer_guilty,
          .final_state = static_cast<uint32_t>(outcome.final_state),
          .gas = outcome.gas_used};
}

Outcome FromWire(const WireVerdict& verdict) {
  return {.claim_id = verdict.claim_id,
          .c0 = verdict.c0,
          .supervised = verdict.supervised,
          .flagged = verdict.flagged,
          .guilty = verdict.proposer_guilty,
          .final_state = verdict.final_state,
          .gas = verdict.gas_used};
}

Committed CommitModel() {
  Committed committed;
  committed.model = BuildBertMini();
  const int64_t calibrate_begin = NowNs();
  CalibrateOptions options;
  options.num_samples = 4;
  committed.thresholds = std::make_unique<ThresholdSet>(
      Calibrate(committed.model, DeviceRegistry::Fleet(), options).MakeThresholds(3.0));
  committed.calibrate_s = SecondsSince(calibrate_begin);
  const int64_t commit_begin = NowNs();
  committed.commitment =
      std::make_unique<ModelCommitment>(*committed.model.graph, *committed.thresholds);
  committed.commit_s = SecondsSince(commit_begin);
  return committed;
}

ServiceOptions MakeServiceOptions() {
  ServiceOptions options;
  options.num_workers = 2;
  options.batching.initial_hint = 4;
  options.verifier.reuse_buffers = true;
  options.verifier.dispute.num_threads = 2;  // kernel width
  return options;
}

Stack ServeModel(const Committed& committed, bool wire, const std::string& durable_dir) {
  Stack stack;
  stack.registry = std::make_unique<ModelRegistry>();
  GatewayOptions gateway_options;
  gateway_options.rpc.enabled = wire;
  stack.gateway = std::make_unique<ServingGateway>(*stack.registry, gateway_options);
  stack.id = stack.registry->Register(committed.model);
  ModelCommitConfig config;
  config.durability.directory = durable_dir;
  stack.registry->Commit(stack.id, *committed.commitment, *committed.thresholds, config);
  stack.gateway->Serve(stack.id, MakeServiceOptions());
  return stack;
}

SetUp SetUpRepeatedly(const WorkloadSpec& spec, WorkDir& work) {
  SetUp setup;
  double spent = 0;
  for (int round = 0;
       round < kSetupMaxRounds && (round < kSetupRounds || spent < kSetupSeconds); ++round) {
    setup.stack.gateway.reset();  // the gateway refers to the registry: it goes first
    setup.stack.registry.reset();
    setup.committed = Committed{};
    const std::string durable_dir = spec.durable ? work.NewDir("setup") : "";
    const int64_t begin = NowNs();
    setup.committed = CommitModel();
    setup.stack = ServeModel(setup.committed, /*wire=*/false, durable_dir);
    setup.total_s.push_back(SecondsSince(begin));
    spent += setup.total_s.back();
    setup.calibrate_s.push_back(setup.committed.calibrate_s);
    setup.commit_s.push_back(setup.committed.commit_s);
  }
  return setup;
}

std::vector<Outcome> ReferenceReplay(const Committed& committed, ModelId model_id,
                                     const std::vector<BatchClaim>& pool,
                                     const std::vector<size_t>& positions) {
  constexpr size_t kCohort = 8;
  constexpr size_t kPhase1Threads = 4;
  const Graph& graph = *committed.model.graph;
  Coordinator coordinator(GasSchedule{}, /*round_timeout=*/10, /*num_shards=*/1, model_id);
  // Outcomes do not depend on kernel width, so each verifier uses the width
  // that runs its part fastest.
  BatchVerifierOptions phase1_options = MakeServiceOptions().verifier;
  phase1_options.dispute.num_threads = 1;
  BatchVerifierOptions resolve_options = phase1_options;
  resolve_options.dispute.num_threads = 2;
  BatchVerifier phase1_verifier(committed.model, *committed.commitment, *committed.thresholds,
                                coordinator, phase1_options);
  BatchVerifier verifier(committed.model, *committed.commitment, *committed.thresholds,
                         coordinator, resolve_options);

  // Phase 1 touches no coordinator state, so it runs once per distinct claim of
  // the pool, cohorts in parallel. A flagged claim's full proposer trace is
  // dropped here and re-executed right before its dispute, as ExecutePhase1
  // itself does.
  std::vector<bool> needed(pool.size(), false);
  for (const size_t position : positions) {
    needed[position % pool.size()] = true;
  }
  std::vector<std::vector<size_t>> cohorts;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (needed[i]) {
      if (cohorts.empty() || cohorts.back().size() == kCohort) {
        cohorts.emplace_back();
      }
      cohorts.back().push_back(i);
    }
  }
  std::vector<ClaimPhase1> phase1(pool.size());
  std::atomic<size_t> next_cohort{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kPhase1Threads; ++t) {
    threads.emplace_back([&] {
      for (size_t c = next_cohort++; c < cohorts.size(); c = next_cohort++) {
        std::vector<BatchClaim> cohort;
        for (const size_t i : cohorts[c]) {
          cohort.push_back(pool[i]);
        }
        std::vector<ClaimPhase1> results = phase1_verifier.ExecutePhase1(cohort);
        for (size_t j = 0; j < results.size(); ++j) {
          results[j].proposer_trace = ExecutionTrace{};
          phase1[cohorts[c][j]] = std::move(results[j]);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // Resolution: one claim at a time, in the given order.
  ExecutorOptions trace_options;
  trace_options.num_threads = resolve_options.dispute.num_threads;
  std::vector<Outcome> outcomes;
  outcomes.reserve(positions.size());
  for (const size_t position : positions) {
    const BatchClaim& claim = pool[position % pool.size()];
    const ClaimPhase1& result = phase1[position % pool.size()];
    if (!result.flagged) {
      outcomes.push_back(FromBatch(verifier.ResolveClaim(claim, result)));
      continue;
    }
    ClaimPhase1 flagged = result;
    flagged.proposer_trace = Executor(graph, *claim.proposer_device)
                                 .RunPerturbed(claim.inputs, claim.perturbations, trace_options);
    outcomes.push_back(FromBatch(verifier.ResolveClaim(claim, flagged)));
  }
  return outcomes;
}

WorkDir::WorkDir(std::filesystem::path root) : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
}

WorkDir::~WorkDir() {
  std::error_code ignored;
  std::filesystem::remove_all(root_, ignored);
}

std::string WorkDir::NewDir(const std::string& tag) {
  const std::filesystem::path dir = root_ / (tag + "-" + std::to_string(next_++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string WorkDir::FsType() const {
  struct statfs info {};
  if (::statfs(root_.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021997: return "9p";
    case 0x65735546: return "fuse";
    default: break;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%" PRIx64, static_cast<uint64_t>(info.f_type));
  return buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ResidentMb() {
  // Kept open: sampled every millisecond while the window runs.
  static const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  char buffer[128];
  const ssize_t length = fd < 0 ? -1 : ::pread(fd, buffer, sizeof(buffer) - 1, 0);
  if (length <= 0) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  buffer[length] = '\0';
  unsigned long long pages = 0;
  unsigned long long resident = 0;
  if (std::sscanf(buffer, "%llu %llu", &pages, &resident) != 2) {
    throw std::runtime_error("cannot parse /proc/self/statm");
  }
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void PrintReport(const Report& report) {
  for (const Metric& metric : report.metrics) {
    std::printf("  %-34s %16.6f %-8s n=%zu\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              report.correct ? "true" : "false", report.attempted, report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), value, metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace tao::claimbench
