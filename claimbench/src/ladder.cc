// Traced run: the layer ladder from `graph` up to `net`.
//
// A fixed prefix of the workload's claim stream goes through each layer's public
// entry point in turn. Each rung is timed with spans recorded here, around the
// calls, and its outcomes are compared bitwise with the rung below, so the time
// between rungs is attributed rather than guessed:
//
//   graph     Executor::RunOutput per fleet profile, Executor::RunBatch cohorts
//   phase1    BatchVerifier::ExecutePhase1 (runtime arena, crypto C0)
//   resolve   BatchVerifier::ResolveClaim, claim by claim, on a Coordinator
//   service   VerificationService Submit -> OnDelivered
//   registry  ServingGateway Submit -> OnDelivered
//   net       RetriableChannel Submit -> WaitVerdict over a loopback RpcServer

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "claimbench/src/loop.h"
#include "claimbench/src/quantile.h"
#include "claimbench/src/runs.h"
#include "src/net/client_channel.h"
#include "src/util/stats.h"

namespace tao::claimbench {
namespace {

constexpr size_t kCohort = 4;           // claims per RunBatch / ExecutePhase1 call
constexpr size_t kForwardSamples = 64;  // RunOutput timings per fleet profile

// chrome://tracing rows.
enum Lane : uint32_t {
  kGraphLane = 1,
  kPhase1Lane,
  kResolveLane,
  kServiceLane,
  kRegistryLane,
  kNetLane,
};

double Ms(int64_t begin_ns, int64_t end_ns) { return static_cast<double>(end_ns - begin_ns) / 1e6; }

double MedianOr0(const std::vector<double>& values) { return values.empty() ? 0.0 : Median(values); }
double MeanOr0(const std::vector<double>& values) { return values.empty() ? 0.0 : Mean(values); }

// Counts cross-check failures; reports the first few.
struct Checks {
  int64_t failures = 0;
  void Expect(bool ok, const char* rung, size_t claim) {
    if (!ok && failures++ < 5) {
      std::fprintf(stderr, "CROSS-CHECK FAILURE at rung %s, claim %zu\n", rung, claim);
    }
  }
};

// One closed-loop rung: throughput over its wall time, latency from its slots.
struct RungStats {
  size_t claims = 0;
  double claims_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

RungStats Summarize(const LoopControl& control, const char* rung) {
  std::vector<double> latencies;
  int64_t first = INT64_MAX;
  int64_t last = 0;
  for (size_t i = 0; i < control.submitted.load(); ++i) {
    const Slot& slot = control.slots[i];
    first = std::min(first, slot.submit_ns);
    if (slot.verdict_ns != 0) {
      latencies.push_back(Ms(slot.submit_ns, slot.verdict_ns));
      last = std::max(last, slot.verdict_ns);
    }
  }
  const std::optional<double> p50 = QuantileOf(latencies, kP50);
  const std::optional<double> p99 = QuantileOf(latencies, kP99);
  if (!p50 || !p99) {
    throw std::runtime_error(std::string("too few verdicts for a p99 at rung ") + rung);
  }
  return {.claims = latencies.size(),
          .claims_per_s = static_cast<double>(latencies.size()) / (Ms(first, last) / 1e3),
          .p50_ms = *p50,
          .p99_ms = *p99};
}

// Checks a loop rung against the outcomes of the rung below, by stream
// position: one generator thread means accepted order is stream order.
void CheckAgainst(const LoopControl& control, const std::vector<Outcome>& below,
                  const char* rung, Checks& checks) {
  checks.Expect(control.submitted.load() == below.size(), rung, control.submitted.load());
  for (size_t i = 0; i < std::min(control.submitted.load(), below.size()); ++i) {
    const Slot& slot = control.slots[i];
    checks.Expect(slot.accepted && slot.verdict_ns != 0 && slot.sequence == i &&
                      slot.outcome == below[i],
                  rung, i);
  }
}

std::vector<Outcome> Outcomes(const LoopControl& control) {
  std::vector<Outcome> outcomes;
  for (size_t i = 0; i < control.submitted.load(); ++i) {
    outcomes.push_back(control.slots[i].outcome);
  }
  return outcomes;
}

double Counter(const std::vector<NamedCounter>& counters, const std::string& name) {
  for (const NamedCounter& counter : counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  throw std::runtime_error("missing counter " + name);
}

}  // namespace

Report RunLadder(const WorkloadSpec& spec, const RunOptions& options) {
  const std::vector<BatchClaim> pool = MakeClaimPool(spec, BuildBertMini(), options.seed);
  const size_t n = kLadderClaims;
  auto claim = [&pool](size_t i) -> const BatchClaim& { return pool[i % pool.size()]; };

  WorkDir work(options.work_dir / (std::string(spec.name) + "-" + std::to_string(::getpid())));
  SetUp setup = SetUpRepeatedly(spec, work);
  setup.stack.gateway.reset();
  setup.stack.registry.reset();
  const Committed& committed = setup.committed;
  const Graph& graph = *committed.model.graph;
  const NodeId output = graph.output();
  const ServiceOptions service_options = MakeServiceOptions();
  auto durable_dir = [&](const char* tag) { return spec.durable ? work.NewDir(tag) : ""; };
  DurabilityOptions durability;

  const auto& fleet = DeviceRegistry::Fleet();
  std::vector<std::string> forward_names;  // span names; outlive the log
  for (const DeviceProfile& profile : fleet) {
    forward_names.push_back("graph.forward." + profile.name);
  }
  SpanLog log;
  Checks checks;
  auto span = [&log](const char* name, uint32_t parent, uint32_t lane, int64_t claim_index,
                     int64_t begin_ns, int64_t end_ns, uint32_t id = 0) {
    return log.Record({.name = name, .id = id, .parent = parent, .lane = lane,
                       .claim = claim_index, .begin_ns = begin_ns, .end_ns = end_ns});
  };

  ExecutorOptions exec;
  exec.num_threads = service_options.verifier.dispute.num_threads;
  exec.reuse_buffers = service_options.verifier.reuse_buffers;

  // ---- graph: per-profile forwards, then the cohorts' lanes in one DAG each ---------
  const uint32_t graph_rung = log.NextId();
  const int64_t graph_begin = NowNs();
  const size_t forward_samples = std::min(n, kForwardSamples);
  std::map<const DeviceProfile*, std::vector<Tensor>> forward_out;
  std::map<std::string, std::vector<double>> forward_ms;
  for (size_t p = 0; p < fleet.size(); ++p) {
    const Executor executor(graph, fleet[p]);
    for (size_t i = 0; i < forward_samples; ++i) {
      const int64_t begin = NowNs();
      forward_out[&fleet[p]].push_back(executor.RunOutput(claim(i).inputs, exec));
      const int64_t end = NowNs();
      span(forward_names[p].c_str(), graph_rung, kGraphLane, static_cast<int64_t>(i), begin, end);
      forward_ms[fleet[p].name].push_back(Ms(begin, end));
    }
  }
  // Proposer lanes (perturbed where the claim cheats) and challenger lanes, as
  // ExecutePhase1 lowers them; their outputs are what the phase1 rung must hash
  // and threshold-check.
  std::vector<Tensor> proposer_out(n);
  std::vector<Tensor> challenger_out(n);
  double batch_ms = 0;
  size_t batch_lanes = 0;
  for (size_t begin_claim = 0; begin_claim < n; begin_claim += kCohort) {
    const size_t end_claim = std::min(n, begin_claim + kCohort);
    std::vector<Executor::BatchItem> items;
    for (size_t i = begin_claim; i < end_claim; ++i) {
      const BatchClaim& c = claim(i);
      Executor::BatchItem proposer;
      proposer.inputs = &c.inputs;
      proposer.perturbations = c.perturbations.empty() ? nullptr : &c.perturbations;
      proposer.device = c.proposer_device;
      items.push_back(std::move(proposer));
      if (c.supervised()) {
        Executor::BatchItem challenger;
        challenger.inputs = &c.inputs;
        challenger.device = c.verifier_device;
        items.push_back(std::move(challenger));
      }
    }
    const int64_t begin = NowNs();
    const std::vector<ExecutionTrace> lanes =
        Executor(graph, *claim(begin_claim).proposer_device).RunBatch(items, exec);
    const int64_t end = NowNs();
    span("graph.batch", graph_rung, kGraphLane, static_cast<int64_t>(begin_claim), begin, end);
    batch_ms += Ms(begin, end);
    batch_lanes += lanes.size();
    size_t lane = 0;
    for (size_t i = begin_claim; i < end_claim; ++i) {
      const BatchClaim& c = claim(i);
      proposer_out[i] = lanes[lane++].value(output);
      if (c.supervised()) {
        challenger_out[i] = lanes[lane++].value(output);
      }
      // A batched lane equals the single forward on the same profile.
      if (i < forward_samples) {
        checks.Expect(!c.perturbations.empty() ||
                          SameTensor(proposer_out[i], forward_out[c.proposer_device][i]),
                      "graph", i);
        checks.Expect(!c.supervised() ||
                          SameTensor(challenger_out[i], forward_out[c.verifier_device][i]),
                      "graph", i);
      }
    }
  }
  span("rung.graph", kNoParent, kGraphLane, kNoClaim, graph_begin, NowNs(), graph_rung);

  // ---- phase1 + resolve, cohort by cohort (a flagged claim's full trace is large,
  // so phase-1 results are resolved before the next cohort executes) --------------------
  const uint32_t protocol_rung = log.NextId();
  const int64_t protocol_begin = NowNs();
  durability.directory = durable_dir("resolve");
  Coordinator coordinator(GasSchedule{}, /*round_timeout=*/10, /*num_shards=*/1,
                          /*model_id=*/1, durability);
  BatchVerifier verifier(committed.model, *committed.commitment, *committed.thresholds,
                         coordinator, service_options.verifier);
  std::vector<Outcome> resolved(n);
  TensorArena::Stats arena_total;
  double phase1_ms = 0;
  double resolve_ms = 0;
  std::vector<double> c0_us, resolve_us, dispute_ms, dispute_rounds, dispute_cost, merkle_checks;
  size_t supervised = 0;
  size_t flagged = 0;
  for (size_t begin_claim = 0; begin_claim < n; begin_claim += kCohort) {
    const size_t end_claim = std::min(n, begin_claim + kCohort);
    std::vector<BatchClaim> cohort;
    for (size_t i = begin_claim; i < end_claim; ++i) {
      cohort.push_back(claim(i));
    }
    TensorArena::Stats arena;
    const int64_t begin = NowNs();
    const std::vector<ClaimPhase1> phase1 = verifier.ExecutePhase1(cohort, &arena);
    const int64_t end = NowNs();
    span("protocol.phase1", protocol_rung, kPhase1Lane, static_cast<int64_t>(begin_claim), begin,
         end);
    phase1_ms += Ms(begin, end);
    arena_total.requests += arena.requests;
    arena_total.pool_hits += arena.pool_hits;
    arena_total.peak_outstanding_bytes =
        std::max(arena_total.peak_outstanding_bytes, arena.peak_outstanding_bytes);

    for (size_t j = 0; j < cohort.size(); ++j) {
      const size_t i = begin_claim + j;
      const BatchClaim& c = cohort[j];
      // Against the graph rung: C0 over its output, the threshold verdict over its
      // proposer and challenger outputs.
      ResultMeta meta;
      meta.device = c.proposer_device->name;
      meta.challenge_window = service_options.verifier.dispute.challenge_window;
      const int64_t c0_begin = NowNs();
      const Digest c0 = ComputeResultCommitment(*committed.commitment, c.inputs, proposer_out[i], meta);
      const int64_t c0_end = NowNs();
      span("crypto.c0", protocol_rung, kPhase1Lane, static_cast<int64_t>(i), c0_begin, c0_end);
      c0_us.push_back(Ms(c0_begin, c0_end) * 1e3);
      checks.Expect(phase1[j].c0 == c0 && phase1[j].supervised == c.supervised() &&
                        (!c.supervised() ||
                         phase1[j].flagged ==
                             committed.thresholds->Exceeds(output, proposer_out[i], challenger_out[i])),
                    "phase1", i);
      supervised += c.supervised() ? 1 : 0;
      flagged += phase1[j].flagged ? 1 : 0;
    }
    for (size_t j = 0; j < cohort.size(); ++j) {
      const size_t i = begin_claim + j;
      const int64_t resolve_begin = NowNs();
      const BatchClaimOutcome outcome = verifier.ResolveClaim(cohort[j], phase1[j]);
      const int64_t resolve_end = NowNs();
      span(outcome.flagged ? "protocol.dispute" : "protocol.resolve", protocol_rung, kResolveLane,
           static_cast<int64_t>(i), resolve_begin, resolve_end);
      resolve_ms += Ms(resolve_begin, resolve_end);
      checks.Expect(outcome.c0 == phase1[j].c0 && outcome.flagged == phase1[j].flagged, "resolve", i);
      resolved[i] = FromBatch(outcome);
      if (outcome.flagged) {
        dispute_ms.push_back(Ms(resolve_begin, resolve_end));
        dispute_rounds.push_back(static_cast<double>(outcome.dispute.rounds));
        dispute_cost.push_back(outcome.dispute.cost_ratio);
        merkle_checks.push_back(static_cast<double>(outcome.dispute.total_merkle_checks));
      } else {
        resolve_us.push_back(Ms(resolve_begin, resolve_end) * 1e3);
      }
    }
  }
  coordinator.FlushDurability();
  const int64_t protocol_end = NowNs();
  span("rung.protocol", kNoParent, kPhase1Lane, kNoClaim, protocol_begin, protocol_end,
       protocol_rung);
  const DurabilityStats durable_stats = coordinator.durability_stats();

  // ---- service ---------------------------------------------------------------------
  const uint32_t service_rung = log.NextId();
  LoopControl service_loop(n);
  MetricsSnapshot service_metrics;
  {
    durability.directory = durable_dir("service");
    Coordinator service_coordinator(GasSchedule{}, 10, 1, 1, durability);
    VerificationService service(committed.model, *committed.commitment, *committed.thresholds,
                                service_coordinator, service_options);
    const int64_t begin = NowNs();
    RunInProcessLoop(
        pool, [&](BatchClaim c) { return service.Submit(std::move(c)); }, kInFlight,
        service_loop, {&log, "service.claim", "service.submit", service_rung, kServiceLane});
    service.Drain();
    span("rung.service", kNoParent, kServiceLane, kNoClaim, begin, NowNs(), service_rung);
    service_metrics = service.metrics();
  }
  CheckAgainst(service_loop, resolved, "service", checks);
  const RungStats service = Summarize(service_loop, "service");

  // ---- registry (and, untraced, the in-process end-to-end path) ----------------------
  auto run_registry = [&](LoopControl& control, const LoopSpans& spans) {
    Stack stack = ServeModel(committed, /*wire=*/false, durable_dir("registry"));
    RunInProcessLoop(
        pool, [&](BatchClaim c) { return stack.gateway->Submit(stack.id, std::move(c)).ticket; },
        kInFlight, control, spans);
    stack.gateway->DrainAll();
    return stack.gateway->metrics();
  };
  const uint32_t registry_rung = log.NextId();
  LoopControl registry_loop(n);
  const int64_t registry_begin = NowNs();
  const GatewaySnapshot gateway_metrics = run_registry(
      registry_loop, {&log, "registry.claim", "registry.submit", registry_rung, kRegistryLane});
  span("rung.registry", kNoParent, kRegistryLane, kNoClaim, registry_begin, NowNs(), registry_rung);
  CheckAgainst(registry_loop, Outcomes(service_loop), "registry", checks);
  const RungStats registry = Summarize(registry_loop, "registry");

  // ---- net: codec alone, then the loopback RPC path ----------------------------------
  const uint32_t net_rung = log.NextId();
  const int64_t net_begin = NowNs();
  std::vector<double> encode_us, decode_us;
  double frame_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const BatchClaim& c = claim(i);
    const int64_t encode_begin = NowNs();
    WireSubmit submit;
    submit.model_id = 1;
    submit.claim = WireClaimFromBatchClaim(c);
    const std::vector<uint8_t> payload = EncodeSubmit(submit);
    const int64_t encode_end = NowNs();
    WireSubmit decoded;
    BatchClaim back;
    const bool ok = DecodeSubmit(payload, decoded) && BatchClaimFromWireClaim(decoded.claim, back);
    const int64_t decode_end = NowNs();
    span("net.encode", net_rung, kNetLane, static_cast<int64_t>(i), encode_begin, encode_end);
    span("net.decode", net_rung, kNetLane, static_cast<int64_t>(i), encode_end, decode_end);
    encode_us.push_back(Ms(encode_begin, encode_end) * 1e3);
    decode_us.push_back(Ms(encode_end, decode_end) * 1e3);
    frame_bytes += static_cast<double>(payload.size() + kWireHeaderBytes);
    checks.Expect(ok && SameClaim(back, c), "net.codec", i);
  }
  LoopControl net_loop(n);
  WireTotals net_totals;
  std::vector<NamedCounter> net_counters;
  {
    Stack stack = ServeModel(committed, /*wire=*/true, durable_dir("net"));
    net_totals = RunWireLoop(pool, stack.gateway->rpc()->port(), stack.id, kInFlight,
                             /*session=*/options.seed * 1000 + 1, net_loop,
                             {&log, "net.claim", "net.ack", net_rung, kNetLane});
    stack.gateway->DrainAll();
    net_counters = stack.gateway->rpc()->Counters();
  }
  span("rung.net", kNoParent, kNetLane, kNoClaim, net_begin, NowNs(), net_rung);
  CheckAgainst(net_loop, Outcomes(registry_loop), "net", checks);
  const RungStats net = Summarize(net_loop, "net");
  std::vector<double> ack_ms;
  for (size_t i = 0; i < net_loop.submitted.load(); ++i) {
    ack_ms.push_back(Ms(net_loop.slots[i].submit_ns, net_loop.slots[i].submitted_ns));
  }
  std::vector<double> registry_submit_us;
  for (size_t i = 0; i < registry_loop.submitted.load(); ++i) {
    registry_submit_us.push_back(
        Ms(registry_loop.slots[i].submit_ns, registry_loop.slots[i].submitted_ns) * 1e3);
  }

  // ---- the end-to-end path again, untraced: what the spans cost ----------------------
  LoopControl untraced_loop(n);
  run_registry(untraced_loop, LoopSpans{});
  CheckAgainst(untraced_loop, resolved, "untraced", checks);
  const RungStats untraced = Summarize(untraced_loop, "untraced");

  // ---- report ------------------------------------------------------------------------
  std::filesystem::create_directories(std::filesystem::path(options.trace_out).parent_path());
  if (!log.WriteChromeTrace(options.trace_out)) {
    throw std::runtime_error("cannot write " + options.trace_out);
  }
  std::printf("claimbench ladder: workload=%s seed=%llu, %zu claims per rung, window %zu\n",
              spec.name, static_cast<unsigned long long>(options.seed), n, kInFlight);
  if (spec.durable) {
    std::printf("  durable coordinator changelog on %s\n", work.FsType().c_str());
  }
  std::printf("  %-10s %10s %10s %10s %14s\n", "rung", "claims/s", "p50_ms", "p99_ms",
              "p50_over_below");
  const struct {
    const char* name;
    const RungStats& stats;
    double below_p50;
  } rungs[] = {{"service", service, phase1_ms / n + resolve_ms / n},
               {"registry", registry, service.p50_ms},
               {"net", net, registry.p50_ms}};
  for (const auto& rung : rungs) {
    std::printf("  %-10s %10.1f %10.3f %10.3f %14.3f\n", rung.name, rung.stats.claims_per_s,
                rung.stats.p50_ms, rung.stats.p99_ms, rung.stats.p50_ms - rung.below_p50);
  }
  std::printf("  span self time (ms):\n");
  for (const SpanLog::SelfTime& entry : log.SelfTimes()) {
    std::printf("    %-24s n=%-6zu total %10.1f  self %10.1f\n", entry.name.c_str(), entry.count,
                entry.total_ms, entry.self_ms);
  }
  std::printf("  cross-checks against the rung below: %lld failures; trace written to %s\n",
              static_cast<long long>(checks.failures), options.trace_out.c_str());

  double forward_mix_ms = 0;
  for (const DeviceProfile& profile : fleet) {
    forward_mix_ms += Median(forward_ms[profile.name]) / static_cast<double>(fleet.size());
  }
  const double protocol_s = Ms(protocol_begin, protocol_end) / 1e3;
  const double claims = static_cast<double>(n);
  const int64_t gateway_rejected = gateway_metrics.rejected_unknown +
                                   gateway_metrics.rejected_not_committed +
                                   gateway_metrics.rejected_not_serving +
                                   gateway_metrics.rejected_draining +
                                   gateway_metrics.rejected_retired +
                                   gateway_metrics.aggregate.rejected;

  Report report;
  report.attempted = static_cast<int64_t>(n);
  report.failed = checks.failures;
  report.correct = checks.failures == 0;
  const size_t samples = n;
  report.metrics = {
      {"graph.forward_ms.H100", Median(forward_ms["H100"]), "ms", forward_samples},
      {"graph.forward_ms.A100", Median(forward_ms["A100"]), "ms", forward_samples},
      {"graph.forward_ms.RTX4090", Median(forward_ms["RTX4090"]), "ms", forward_samples},
      {"graph.forward_ms.RTX6000", Median(forward_ms["RTX6000"]), "ms", forward_samples},
      {"graph.gflops", static_cast<double>(graph.TotalFlops()) / (forward_mix_ms * 1e6), "GFLOP/s",
       forward_samples * fleet.size()},
      {"graph.batch_lane_ms", batch_ms / static_cast<double>(batch_lanes), "ms", batch_lanes},
      {"protocol.phase1_ms_per_claim", phase1_ms / claims, "ms", samples},
      {"runtime.arena_hit_frac",
       arena_total.requests > 0
           ? static_cast<double>(arena_total.pool_hits) / static_cast<double>(arena_total.requests)
           : 0.0,
       "1", static_cast<size_t>(arena_total.requests)},
      {"runtime.arena_peak_mb", static_cast<double>(arena_total.peak_outstanding_bytes) / (1 << 20),
       "MB", samples},
      {"protocol.flag_frac", supervised > 0 ? static_cast<double>(flagged) / supervised : 0.0, "1",
       supervised},
      {"protocol.resolve_us", MedianOr0(resolve_us), "us", resolve_us.size()},
      {"protocol.dispute_ms", MedianOr0(dispute_ms), "ms", dispute_ms.size()},
      {"protocol.dispute_rounds", MeanOr0(dispute_rounds), "count", dispute_rounds.size()},
      {"protocol.dispute_cost_ratio", MeanOr0(dispute_cost), "1", dispute_cost.size()},
      {"protocol.merkle_checks_per_dispute", MeanOr0(merkle_checks), "count", merkle_checks.size()},
      {"crypto.c0_us", Median(c0_us), "us", c0_us.size()},
      {"crypto.commit_s", Median(setup.commit_s), "s", setup.commit_s.size()},
      {"calib.calibrate_s", Median(setup.calibrate_s), "s", setup.calibrate_s.size()},
      {"durability.records_per_claim", static_cast<double>(durable_stats.records_appended) / claims,
       "count", samples},
      {"durability.bytes_per_claim", static_cast<double>(durable_stats.bytes_appended) / claims, "B",
       samples},
      {"durability.flush_us_mean",
       durable_stats.flushes > 0 ? static_cast<double>(durable_stats.flush_ns_total) /
                                       static_cast<double>(durable_stats.flushes) / 1e3
                                 : 0.0,
       "us", static_cast<size_t>(durable_stats.flushes)},
      {"durability.fsyncs_per_s", static_cast<double>(durable_stats.fsyncs) / protocol_s, "1/s",
       static_cast<size_t>(durable_stats.fsyncs)},
      {"service.claims_per_s", service.claims_per_s, "1/s", service.claims},
      {"service.verdict_p50_ms", service.p50_ms, "ms", service.claims},
      {"service.verdict_p99_ms", service.p99_ms, "ms", service.claims},
      {"service.overhead_ms", service.p50_ms - (phase1_ms + resolve_ms) / claims, "ms", samples},
      {"service.batch_size_mean",
       service_metrics.batches_dispatched > 0
           ? static_cast<double>(service_metrics.completed) /
                 static_cast<double>(service_metrics.batches_dispatched)
           : 0.0,
       "count", static_cast<size_t>(service_metrics.batches_dispatched)},
      {"service.peak_queue_depth", static_cast<double>(service_metrics.peak_queue_depth), "count",
       samples},
      {"registry.claims_per_s", registry.claims_per_s, "1/s", registry.claims},
      {"registry.verdict_p50_ms", registry.p50_ms, "ms", registry.claims},
      {"registry.verdict_p99_ms", registry.p99_ms, "ms", registry.claims},
      {"registry.submit_us", Median(registry_submit_us), "us", registry_submit_us.size()},
      {"registry.overhead_ms", registry.p50_ms - service.p50_ms, "ms", samples},
      {"net.claims_per_s", net.claims_per_s, "1/s", net.claims},
      {"net.verdict_p50_ms", net.p50_ms, "ms", net.claims},
      {"net.verdict_p99_ms", net.p99_ms, "ms", net.claims},
      {"net.encode_us", Median(encode_us), "us", encode_us.size()},
      {"net.decode_us", Median(decode_us), "us", decode_us.size()},
      {"net.frame_bytes", frame_bytes / claims, "B", samples},
      {"net.ack_ms", Median(ack_ms), "ms", ack_ms.size()},
      {"net.overhead_ms", net.p50_ms - registry.p50_ms, "ms", samples},
      {"net.bytes_in_per_claim", Counter(net_counters, "net/bytes_read") / claims, "B", samples},
      {"net.bytes_out_per_claim", Counter(net_counters, "net/bytes_written") / claims, "B", samples},
      {"trace.overhead_frac", 1.0 - registry.claims_per_s / untraced.claims_per_s, "1",
       untraced.claims},
  };
  // Rejects and retries are 0 on loopback (a rejected claim also fails its
  // rung's cross-check), so they are printed here, not in the result object.
  const Metric zero_counters[] = {
      {"service.rejected", static_cast<double>(service_metrics.rejected), "count", samples},
      {"registry.rejected", static_cast<double>(gateway_rejected), "count", samples},
      {"net.retries",
       static_cast<double>(net_totals.reconnects + net_totals.resubmissions) +
           Counter(net_counters, "net/rpc/dedup_hits"),
       "count", samples},
      {"net.overloaded_rejects", Counter(net_counters, "net/rpc/queue_overflow_rejects"), "count",
       samples},
  };
  for (const Metric& metric : zero_counters) {
    std::printf("  %-34s %16.6f %-8s n=%zu\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  return report;
}

}  // namespace tao::claimbench
