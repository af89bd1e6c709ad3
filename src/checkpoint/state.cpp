#include "checkpoint/state.h"

#include <stdexcept>

namespace mlperf::checkpoint {

namespace {

std::string shape_str(const tensor::Shape& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.size(); ++i)
    out += (i ? "," : "") + std::to_string(s[i]);
  return out + "]";
}

/// Reads one (name, tensor) record and copies it into `dst`, enforcing the
/// expected name and shape.
void read_named_tensor_into(ByteReader& in, const std::string& expect_name,
                            tensor::Tensor& dst, const char* what) {
  const std::string name = in.get_string();
  if (name != expect_name)
    throw CheckpointError(std::string(what) + " name mismatch: checkpoint has '" + name +
                          "', live object expects '" + expect_name + "'");
  tensor::Tensor t = in.get_tensor();
  if (t.shape() != dst.shape())
    throw CheckpointError(std::string(what) + " shape mismatch for '" + name +
                          "': checkpoint " + shape_str(t.shape()) + ", live object " +
                          shape_str(dst.shape()));
  dst = std::move(t);
}

void require_complete(const TrainingState& state) {
  if (!state.model || !state.optimizer || !state.rng)
    throw std::logic_error("workload training state is empty or incomplete: it does not "
                           "support checkpointing");
}

}  // namespace

void write_module(ByteWriter& out, const nn::Module& module) {
  const auto params = module.named_parameters();
  out.put_u64(params.size());
  for (const auto& [name, p] : params) {
    out.put_string(name);
    out.put_tensor(p.value());
  }
  const auto buffers = module.named_buffers();
  out.put_u64(buffers.size());
  for (const auto& [name, t] : buffers) {
    out.put_string(name);
    out.put_tensor(*t);
  }
}

void read_module(ByteReader& in, nn::Module& module) {
  auto params = module.named_parameters();
  const std::uint64_t n_params = in.get_u64();
  if (n_params != params.size())
    throw CheckpointError("model parameter count mismatch: checkpoint has " +
                          std::to_string(n_params) + ", module has " +
                          std::to_string(params.size()));
  for (auto& [name, p] : params)
    read_named_tensor_into(in, name, p.mutable_value(), "model parameter");
  auto buffers = module.named_buffers();
  const std::uint64_t n_buffers = in.get_u64();
  if (n_buffers != buffers.size())
    throw CheckpointError("model buffer count mismatch: checkpoint has " +
                          std::to_string(n_buffers) + ", module has " +
                          std::to_string(buffers.size()));
  for (auto& [name, t] : buffers)
    read_named_tensor_into(in, name, *t, "model buffer");
}

void write_optimizer(ByteWriter& out, optim::Optimizer& optimizer) {
  const optim::OptimizerStateDict d = optimizer.state_dict();
  out.put_string(d.kind);
  out.put_u64(d.tensors.size());
  for (const auto& [name, t] : d.tensors) {
    out.put_string(name);
    out.put_tensor(*t);
  }
  out.put_u64(d.scalars.size());
  for (const auto& [name, s] : d.scalars) {
    out.put_string(name);
    out.put_i64(*s);
  }
}

void read_optimizer(ByteReader& in, optim::Optimizer& optimizer) {
  optim::OptimizerStateDict d = optimizer.state_dict();
  const std::string kind = in.get_string();
  if (kind != d.kind)
    throw CheckpointError("optimizer kind mismatch: checkpoint has '" + kind +
                          "', live optimizer is '" + d.kind + "'");
  const std::uint64_t n_tensors = in.get_u64();
  if (n_tensors != d.tensors.size())
    throw CheckpointError("optimizer slot-buffer count mismatch: checkpoint has " +
                          std::to_string(n_tensors) + ", live optimizer has " +
                          std::to_string(d.tensors.size()));
  for (auto& [name, t] : d.tensors)
    read_named_tensor_into(in, name, *t, "optimizer slot buffer");
  const std::uint64_t n_scalars = in.get_u64();
  if (n_scalars != d.scalars.size())
    throw CheckpointError("optimizer scalar count mismatch: checkpoint has " +
                          std::to_string(n_scalars) + ", live optimizer has " +
                          std::to_string(d.scalars.size()));
  for (auto& [name, s] : d.scalars) {
    const std::string got = in.get_string();
    if (got != name)
      throw CheckpointError("optimizer scalar name mismatch: checkpoint has '" + got +
                            "', live optimizer expects '" + name + "'");
    *s = in.get_i64();
  }
}

void write_rng(ByteWriter& out, const tensor::Rng& rng) {
  const tensor::Rng::State s = rng.state();
  out.put_u64(s.state);
  out.put_bool(s.has_cached_normal);
  out.put_f64(s.cached_normal);
}

void read_rng(ByteReader& in, tensor::Rng& rng) {
  tensor::Rng::State s;
  s.state = in.get_u64();
  s.has_cached_normal = in.get_bool();
  s.cached_normal = in.get_f64();
  rng.set_state(s);
}

void write_state(CheckpointWriter& out, const TrainingState& state) {
  require_complete(state);
  write_module(out.section("model"), *state.model);
  write_optimizer(out.section("optimizer"), *state.optimizer);
  write_rng(out.section("rng"), *state.rng);
  ByteWriter& progress = out.section("progress");
  progress.put_u64(state.counters.size());
  for (const auto& [name, value] : state.counters) {
    progress.put_string(name);
    progress.put_i64(*value);
  }
  progress.put_u64(state.index_lists.size());
  for (const auto& [name, list] : state.index_lists) {
    progress.put_string(name);
    progress.put_u64(list->size());
    for (std::int64_t v : *list) progress.put_i64(v);
  }
}

void read_state(const CheckpointReader& in, const TrainingState& state) {
  require_complete(state);
  // Look up every section and parse "progress" before restoring anything, so
  // a missing section or a mismatched counter or list leaves the workload
  // untouched.
  ByteReader model_in = in.section("model");
  ByteReader opt_in = in.section("optimizer");
  ByteReader rng_in = in.section("rng");
  ByteReader progress = in.section("progress");
  const auto expect_count = [&progress](std::size_t want, const char* what) {
    const std::uint64_t n = progress.get_u64();
    if (n != want)
      throw CheckpointError(std::string(what) + " count mismatch: checkpoint has " +
                            std::to_string(n) + ", workload has " + std::to_string(want));
  };
  const auto expect_name = [&progress](const std::string& name, const char* what) {
    const std::string got = progress.get_string();
    if (got != name)
      throw CheckpointError(std::string(what) + " name mismatch: checkpoint has '" + got +
                            "', workload expects '" + name + "'");
  };
  std::vector<std::int64_t> counters;
  expect_count(state.counters.size(), "progress counter");
  for (const auto& [name, value] : state.counters) {
    expect_name(name, "progress counter");
    counters.push_back(progress.get_i64());
  }
  std::vector<std::vector<std::int64_t>> lists;
  expect_count(state.index_lists.size(), "index list");
  for (const auto& [name, list] : state.index_lists) {
    expect_name(name, "index list");
    const std::uint64_t len = progress.get_u64();
    if (len != list->size())
      throw CheckpointError("index list length mismatch for '" + name + "': checkpoint has " +
                            std::to_string(len) + ", workload has " +
                            std::to_string(list->size()));
    std::vector<std::int64_t>& values = lists.emplace_back(list->size());
    for (std::int64_t& v : values) v = progress.get_i64();
  }
  read_module(model_in, *state.model);
  read_optimizer(opt_in, *state.optimizer);
  read_rng(rng_in, *state.rng);
  for (std::size_t i = 0; i < counters.size(); ++i) *state.counters[i].second = counters[i];
  for (std::size_t i = 0; i < lists.size(); ++i) *state.index_lists[i].second = std::move(lists[i]);
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_module(const nn::Module& module) {
  // Hash the serialized form: names, shapes and raw payloads all contribute.
  ByteWriter w;
  write_module(w, module);
  return fnv1a(w.bytes().data(), w.size());
}

}  // namespace mlperf::checkpoint
