#include "models/transformer.h"

#include <cmath>
#include <stdexcept>

#include "nn/functional.h"

namespace mlperf::models {

using autograd::Variable;
using data::TokenSeq;
using tensor::Tensor;

TransformerBlock::TransformerBlock(std::int64_t model_dim, std::int64_t heads,
                                   std::int64_t ff_dim, bool causal, bool cross_attention,
                                   tensor::Rng& rng)
    : causal_(causal), cross_(cross_attention), self_attn_(model_dim, heads, rng),
      ln1_(model_dim), ln2_(model_dim), ln3_(model_dim),
      ff1_(model_dim, ff_dim, rng), ff2_(ff_dim, model_dim, rng) {
  register_module("self_attn", self_attn_);
  register_module("ln1", ln1_);
  register_module("ln2", ln2_);
  register_module("ln3", ln3_);
  register_module("ff1", ff1_);
  register_module("ff2", ff2_);
  if (cross_) {
    cross_attn_ = std::make_unique<nn::MultiHeadAttention>(model_dim, heads, rng);
    register_module("cross_attn", *cross_attn_);
  }
}

Variable TransformerBlock::forward(const Variable& x, const Variable* memory) {
  Variable y = ln1_.forward(autograd::add(x, self_attn_.forward(x, x, x, causal_)));
  if (cross_) {
    if (!memory) throw std::invalid_argument("TransformerBlock: cross block needs memory");
    y = ln2_.forward(autograd::add(y, cross_attn_->forward(y, *memory, *memory, false)));
  }
  const std::int64_t b = y.shape()[0], t = y.shape()[1], d = y.shape()[2];
  Variable flat = autograd::reshape(y, {b * t, d});
  Variable ff = ff2_.forward(ff1_.forward_relu(flat));  // fused bias+ReLU
  return ln3_.forward(autograd::add(y, autograd::reshape(ff, {b, t, d})));
}

TransformerModel::TransformerModel(const Config& config, tensor::Rng& rng)
    : config_(config), embedding_(config.vocab, config.model_dim, rng),
      positional_({config.max_len, config.model_dim}),
      out_(config.model_dim, config.vocab, rng) {
  register_module("embedding", embedding_);
  register_module("out", out_);
  for (std::int64_t i = 0; i < config.encoder_blocks; ++i) {
    encoder_.push_back(std::make_unique<TransformerBlock>(config.model_dim, config.heads,
                                                          config.ff_dim, false, false, rng));
    register_module("enc" + std::to_string(i), *encoder_.back());
  }
  for (std::int64_t i = 0; i < config.decoder_blocks; ++i) {
    decoder_.push_back(std::make_unique<TransformerBlock>(config.model_dim, config.heads,
                                                          config.ff_dim, true, true, rng));
    register_module("dec" + std::to_string(i), *decoder_.back());
  }
  // Sinusoidal positional encodings (Vaswani et al. §3.5).
  for (std::int64_t pos = 0; pos < config.max_len; ++pos)
    for (std::int64_t i = 0; i < config.model_dim; ++i) {
      const double rate =
          static_cast<double>(pos) /
          std::pow(10000.0, 2.0 * static_cast<double>(i / 2) / static_cast<double>(config.model_dim));
      positional_.at({pos, i}) =
          static_cast<float>(i % 2 == 0 ? std::sin(rate) : std::cos(rate));
    }
}

Variable TransformerModel::embed(const std::vector<TokenSeq>& batch) {
  if (batch.empty()) throw std::invalid_argument("TransformerModel: empty batch");
  const std::int64_t b = static_cast<std::int64_t>(batch.size());
  const std::int64_t t = static_cast<std::int64_t>(batch[0].size());
  if (t > config_.max_len) throw std::invalid_argument("TransformerModel: sequence too long");
  std::vector<std::int64_t> flat;
  flat.reserve(static_cast<std::size_t>(b * t));
  for (const auto& seq : batch) {
    if (static_cast<std::int64_t>(seq.size()) != t)
      throw std::invalid_argument("TransformerModel: ragged batch (bucket by length)");
    flat.insert(flat.end(), seq.begin(), seq.end());
  }
  Variable emb = embedding_.forward(flat);  // [b*t, D]
  emb = autograd::mul_scalar(emb, std::sqrt(static_cast<float>(config_.model_dim)));
  // Add positional encodings: build [b*t, D] constant.
  Tensor pos({b * t, config_.model_dim});
  for (std::int64_t r = 0; r < b * t; ++r) {
    const std::int64_t p = r % t;
    std::copy(positional_.data() + p * config_.model_dim,
              positional_.data() + (p + 1) * config_.model_dim,
              pos.data() + r * config_.model_dim);
  }
  return autograd::reshape(autograd::add(emb, Variable(pos)), {b, t, config_.model_dim});
}

Variable TransformerModel::encode(const std::vector<TokenSeq>& src) {
  Variable x = embed(src);
  for (auto& block : encoder_) x = block->forward(x, nullptr);
  return x;
}

Variable TransformerModel::decode(const std::vector<TokenSeq>& tgt_in, const Variable& memory) {
  Variable x = embed(tgt_in);
  for (auto& block : decoder_) x = block->forward(x, &memory);
  const std::int64_t b = x.shape()[0], t = x.shape()[1];
  return out_.forward(autograd::reshape(x, {b * t, config_.model_dim}));
}

std::vector<TokenSeq> TransformerModel::greedy_translate(const std::vector<TokenSeq>& src,
                                                         std::int64_t max_len) {
  Variable memory = encode(src);
  const std::int64_t b = static_cast<std::int64_t>(src.size());
  std::vector<TokenSeq> generated(static_cast<std::size_t>(b), TokenSeq{data::kBos});
  std::vector<bool> done(static_cast<std::size_t>(b), false);
  for (std::int64_t step = 0; step < max_len; ++step) {
    Variable logits = decode(generated, memory);  // [b*(step+1), vocab]
    const std::int64_t t = step + 1;
    bool all_done = true;
    for (std::int64_t i = 0; i < b; ++i) {
      if (done[static_cast<std::size_t>(i)]) {
        generated[static_cast<std::size_t>(i)].push_back(data::kPad);
        continue;
      }
      // Logits row for the last position of sequence i.
      const std::int64_t row = i * t + (t - 1);
      const float* rp = logits.value().data() + row * config_.vocab;
      std::int64_t best = 0;
      for (std::int64_t v = 1; v < config_.vocab; ++v)
        if (rp[v] > rp[best]) best = v;
      generated[static_cast<std::size_t>(i)].push_back(best);
      if (best == data::kEos) {
        done[static_cast<std::size_t>(i)] = true;
      } else {
        all_done = false;
      }
    }
    if (all_done) break;
  }
  // Trim BOS / EOS / PAD.
  std::vector<TokenSeq> out;
  out.reserve(generated.size());
  for (auto& g : generated) {
    TokenSeq t;
    for (std::size_t i = 1; i < g.size(); ++i) {
      if (g[i] == data::kEos || g[i] == data::kPad) break;
      t.push_back(g[i]);
    }
    out.push_back(std::move(t));
  }
  return out;
}

TransformerWorkload::TransformerWorkload(Config config) : config_(std::move(config)), rng_(1) {
  config_.model.vocab = config_.dataset.vocab + data::kFirstWord;
  config_.model.max_len = config_.dataset.max_len + 2;  // BOS/EOS headroom
}

void TransformerWorkload::prepare_data() {
  data_ = std::make_unique<data::BucketedTranslationData>(config_.dataset, config_.batch_size);
}

void TransformerWorkload::build_model(std::uint64_t seed) {
  rng_ = tensor::Rng(seed);
  tensor::Rng init_rng = rng_.split();
  model_ = std::make_unique<TransformerModel>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::Adam>(model_->parameters());
}

void TransformerWorkload::train_epoch() {
  if (!data_ || !model_) throw std::logic_error("TransformerWorkload: not prepared");
  data_->train_epoch(rng_, [this](const data::TranslationBatch& b) {
    Variable logits = model_->decode(b.tgt_in, model_->encode(b.src));
    Variable loss = config_.label_smoothing > 0.0f
                        ? nn::smoothed_cross_entropy(logits, b.targets, config_.label_smoothing)
                        : nn::cross_entropy(logits, b.targets);
    optimizer_->zero_grad();
    loss.backward();
    optimizer_->step(config_.lr);
  });
}

double TransformerWorkload::evaluate() {
  if (!data_ || !model_) throw std::logic_error("TransformerWorkload: not prepared");
  return greedy_decode_bleu(*model_, data_->dataset(), config_.batch_size);
}

checkpoint::TrainingState TransformerWorkload::training_state() {
  if (!data_ || !model_) throw std::logic_error("TransformerWorkload: not prepared");
  return {model_.get(), optimizer_.get(), &rng_, {}, data_->bucket_order()};
}

std::map<std::string, double> TransformerWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.lr},
          {"label_smoothing", config_.label_smoothing}};
}

}  // namespace mlperf::models
