#include "src/graph/executor.h"

#include <atomic>
#include <limits>
#include <memory>
#include <utility>

#include "src/runtime/parallel_for.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/thread_pool.h"
#include "src/util/check.h"

namespace tao {

ExecutionTrace Executor::Run(const std::vector<Tensor>& inputs,
                             const ExecutorOptions& options) const {
  return RunInternal(inputs, {}, options, /*keep_values=*/true, nullptr);
}

Tensor Executor::RunOutput(const std::vector<Tensor>& inputs, const ExecutorOptions& options,
                           TensorArena::Stats* arena_stats) const {
  ExecutorOptions output_only = options;
  output_only.with_bounds = false;  // bounds require the full trace
  const ExecutionTrace trace =
      RunInternal(inputs, {}, output_only, /*keep_values=*/false, arena_stats);
  return trace.value(graph_.output());
}

ExecutionTrace Executor::RunPerturbed(const std::vector<Tensor>& inputs,
                                      const std::vector<Perturbation>& perturbations,
                                      const ExecutorOptions& options) const {
  return RunInternal(inputs, perturbations, options, /*keep_values=*/true, nullptr);
}

ExecutionTrace Executor::RunInternal(const std::vector<Tensor>& inputs,
                                     const std::vector<Perturbation>& perturbations,
                                     const ExecutorOptions& options, bool keep_values,
                                     TensorArena::Stats* arena_stats) const {
  std::vector<BatchItem> items(1);
  items[0].inputs = &inputs;
  items[0].perturbations = perturbations.empty() ? nullptr : &perturbations;
  items[0].keep_values = keep_values;
  std::vector<ExecutionTrace> traces = RunBatch(items, options, arena_stats);
  return std::move(traces[0]);
}

std::vector<ExecutionTrace> Executor::RunBatch(const std::vector<BatchItem>& items,
                                               const ExecutorOptions& options,
                                               TensorArena::Stats* arena_stats) const {
  const size_t num_items = items.size();
  std::vector<ExecutionTrace> traces(num_items);
  if (num_items == 0) {
    return traces;
  }

  const size_t num_nodes = static_cast<size_t>(graph_.num_nodes());
  const std::vector<NodeId>& ops = graph_.op_nodes();
  const int64_t num_ops = static_cast<int64_t>(ops.size());
  // Per-lane node space: the graph's operators plus one epilogue node that runs the
  // lane's on_complete callback (commitment checks etc.) inside the DAG.
  const int64_t stride = num_ops + 1;
  TAO_CHECK(static_cast<int64_t>(num_items) * stride <
            static_cast<int64_t>(std::numeric_limits<int32_t>::max()))
      << "batch too large for int32 scheduler node indices";

  for (size_t i = 0; i < num_items; ++i) {
    const BatchItem& item = items[i];
    TAO_CHECK(item.inputs != nullptr);
    TAO_CHECK_EQ(item.inputs->size(), graph_.input_nodes().size());
    ExecutionTrace& trace = traces[i];
    trace.values.resize(num_nodes);
    if (options.with_bounds && item.keep_values) {
      trace.bounds.resize(num_nodes);
      trace.has_bounds = true;
    }
    for (size_t j = 0; j < item.inputs->size(); ++j) {
      const NodeId id = graph_.input_nodes()[j];
      TAO_CHECK((*item.inputs)[j].shape() == graph_.node(id).shape)
          << "lane " << i << " input " << j << " shape "
          << (*item.inputs)[j].shape().ToString() << " != declared "
          << graph_.node(id).shape.ToString();
      trace.values[static_cast<size_t>(id)] = (*item.inputs)[j];
    }
    // Weights are shared: the copies below alias the graph's storage.
    for (const NodeId id : graph_.param_nodes()) {
      trace.values[static_cast<size_t>(id)] = graph_.node(id).value;
    }
  }

  // Runtime handles. num_threads == 1 leaves both null: the scheduler degenerates to
  // the seed's sequential interpreter, lane after lane.
  ThreadPool* pool = options.num_threads > 1 ? &ThreadPool::Shared() : nullptr;
  const ParallelFor parallel(pool, options.num_threads);
  const ParallelFor* parallel_handle = pool != nullptr ? &parallel : nullptr;

  // One arena serves every recycling lane, so a buffer dying in one lane can be
  // adopted by another. VALUE reuse is only sound when dead intermediates really
  // die: full-trace lanes retain every value and never recycle outputs. The arena
  // still exists for pure keep-values runs under `reuse_buffers`, because kernels
  // recycle their per-chunk WORKSPACES (and bound scratch, via BoundContext)
  // through it even when every node value is retained.
  std::vector<char> release_dead(num_items, 0);
  bool any_release = false;
  for (size_t i = 0; i < num_items; ++i) {
    release_dead[i] = (!items[i].keep_values && options.reuse_buffers) ? 1 : 0;
    any_release = any_release || release_dead[i];
  }
  std::unique_ptr<TensorArena> arena;
  if (options.reuse_buffers) {
    arena = std::make_unique<TensorArena>();
  }

  // Liveness ref-counts (consumer edges per node id) for the arena's release of dead
  // intermediates, tracked per lane. The edge counts are a property of the graph,
  // counted once.
  std::vector<int32_t> base_uses;
  std::vector<std::vector<std::atomic<int32_t>>> remaining_uses(num_items);
  if (any_release) {
    base_uses.assign(num_nodes, 0);
    for (int64_t k = 0; k < num_ops; ++k) {
      for (const NodeId in : graph_.node(ops[static_cast<size_t>(k)]).inputs) {
        ++base_uses[static_cast<size_t>(in)];
      }
    }
    for (size_t i = 0; i < num_items; ++i) {
      if (!release_dead[i]) {
        continue;
      }
      remaining_uses[i] = std::vector<std::atomic<int32_t>>(num_nodes);
      for (size_t n = 0; n < num_nodes; ++n) {
        remaining_uses[i][n].store(base_uses[n], std::memory_order_relaxed);
      }
    }
  }

  const NodeId output = graph_.output();
  const auto execute_node = [&](size_t item_index, int64_t k) {
    const BatchItem& item = items[item_index];
    ExecutionTrace& trace = traces[item_index];
    const DeviceProfile& device = item.device != nullptr ? *item.device : device_;
    const NodeId id = ops[static_cast<size_t>(k)];
    const Node& node = graph_.node(id);
    const OpKernel& kernel = OpRegistry::Instance().Get(node.op);
    {
      std::vector<Tensor> op_inputs;
      op_inputs.reserve(node.inputs.size());
      for (const NodeId in : node.inputs) {
        op_inputs.push_back(trace.values[static_cast<size_t>(in)]);
      }
      const OpContext ctx{device, op_inputs, node.attrs, parallel_handle, arena.get()};
      Tensor out = kernel.Forward(ctx);
      TAO_CHECK(out.shape() == node.shape)
          << node.label << ": forward produced " << out.shape().ToString() << ", expected "
          << node.shape.ToString();

      if (options.with_bounds && item.keep_values) {
        const BoundContext bctx{device,     op_inputs,          out,
                                node.attrs, options.bound_mode, options.lambda,
                                parallel_handle, arena.get()};
        trace.bounds[static_cast<size_t>(id)] = kernel.Bound(bctx);
      }

      // Adversarial injection happens after the operator completes, before the tensor
      // is published to downstream consumers (Sec. 4.2: h_v <- h_v + Delta_v).
      if (item.perturbations != nullptr) {
        for (const Perturbation& p : *item.perturbations) {
          if (p.node == id) {
            TAO_CHECK(p.delta.shape() == out.shape());
            Tensor perturbed = out.Clone();
            auto pv = perturbed.mutable_values();
            const auto dv = p.delta.values();
            for (size_t v = 0; v < pv.size(); ++v) {
              pv[v] += dv[v];
            }
            out = perturbed;
          }
        }
      }
      trace.values[static_cast<size_t>(id)] = std::move(out);
      // op_inputs goes out of scope here: its aliases must die before the release
      // step below, or a dead input would look live and escape recycling.
    }
    if (release_dead[item_index]) {
      for (const NodeId in : node.inputs) {
        if (remaining_uses[item_index][static_cast<size_t>(in)].fetch_sub(
                1, std::memory_order_acq_rel) != 1) {
          continue;
        }
        if (graph_.node(in).kind != NodeKind::kOp || in == output) {
          continue;  // caller/graph-owned storage, or the value we must return
        }
        arena->Recycle(std::move(trace.values[static_cast<size_t>(in)]));
        trace.values[static_cast<size_t>(in)] = Tensor();
      }
    }
  };
  const auto execute_epilogue = [&](size_t item_index) {
    if (items[item_index].on_complete) {
      items[item_index].on_complete(item_index, traces[item_index]);
    }
  };

  if (pool == nullptr) {
    // Sequential path: lanes run back-to-back, each in the canonical topological
    // order — byte for byte the seed interpreter applied once per lane.
    for (size_t i = 0; i < num_items; ++i) {
      for (int64_t k = 0; k < num_ops; ++k) {
        execute_node(i, k);
      }
      execute_epilogue(i);
    }
  } else {
    // Dependency structure over op-node indices (positions in the canonical
    // topological order), computed once and replicated per lane at offset
    // lane * stride. pending[g] counts producer edges from other op nodes;
    // inputs/params are materialized above and never pend. Each lane's sink
    // operators feed its epilogue node, so the epilogue runs exactly when the lane
    // has fully executed — possibly while other lanes are still in flight.
    std::vector<int32_t> op_index(num_nodes, -1);
    for (int64_t k = 0; k < num_ops; ++k) {
      op_index[static_cast<size_t>(ops[static_cast<size_t>(k)])] = static_cast<int32_t>(k);
    }
    std::vector<std::vector<int32_t>> op_consumers(static_cast<size_t>(num_ops));
    std::vector<int32_t> op_pending(static_cast<size_t>(num_ops), 0);
    for (int64_t k = 0; k < num_ops; ++k) {
      const Node& node = graph_.node(ops[static_cast<size_t>(k)]);
      for (const NodeId in : node.inputs) {
        const int32_t producer = op_index[static_cast<size_t>(in)];
        if (producer >= 0) {
          op_consumers[static_cast<size_t>(producer)].push_back(static_cast<int32_t>(k));
          ++op_pending[static_cast<size_t>(k)];
        }
      }
    }
    int32_t num_sinks = 0;
    for (int64_t k = 0; k < num_ops; ++k) {
      if (op_consumers[static_cast<size_t>(k)].empty()) {
        ++num_sinks;
      }
    }

    const size_t total = num_items * static_cast<size_t>(stride);
    std::vector<std::vector<int32_t>> consumers(total);
    std::vector<int32_t> pending(total);
    for (size_t i = 0; i < num_items; ++i) {
      const int32_t offset = static_cast<int32_t>(i * static_cast<size_t>(stride));
      const int32_t epilogue = offset + static_cast<int32_t>(num_ops);
      for (int64_t k = 0; k < num_ops; ++k) {
        const size_t g = static_cast<size_t>(offset + k);
        std::vector<int32_t>& out_edges = consumers[g];
        out_edges.reserve(op_consumers[static_cast<size_t>(k)].size() + 1);
        for (const int32_t consumer : op_consumers[static_cast<size_t>(k)]) {
          out_edges.push_back(offset + consumer);
        }
        if (op_consumers[static_cast<size_t>(k)].empty()) {
          out_edges.push_back(epilogue);
        }
        pending[g] = op_pending[static_cast<size_t>(k)];
      }
      pending[static_cast<size_t>(epilogue)] = num_sinks;
    }

    const Scheduler scheduler(pool, options.num_threads);
    scheduler.Run(std::move(consumers), std::move(pending), [&](int32_t g) {
      const size_t item_index = static_cast<size_t>(g) / static_cast<size_t>(stride);
      const int64_t k = static_cast<int64_t>(g) % stride;
      if (k == num_ops) {
        execute_epilogue(item_index);
      } else {
        execute_node(item_index, k);
      }
    });
  }

  if (arena_stats != nullptr && arena != nullptr) {
    *arena_stats = arena->stats();
  }
  return traces;
}

}  // namespace tao
