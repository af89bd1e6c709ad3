#include "data/translation.h"

#include <algorithm>
#include <stdexcept>

namespace mlperf::data {

using tensor::Rng;

SyntheticTranslationDataset::SyntheticTranslationDataset(const Config& config)
    : config_(config) {
  if (config_.min_len < 2 || config_.max_len < config_.min_len)
    throw std::invalid_argument("SyntheticTranslationDataset: bad length range");
  Rng map_rng(config_.seed ^ 0x7A6513A7ULL);
  mapping_.resize(static_cast<std::size_t>(config_.vocab));
  for (std::int64_t i = 0; i < config_.vocab; ++i) mapping_[static_cast<std::size_t>(i)] = i;
  map_rng.shuffle(mapping_);

  Rng rng(config_.seed ^ 0x77A15EEDULL);
  train_.reserve(static_cast<std::size_t>(config_.train_size));
  for (std::int64_t i = 0; i < config_.train_size; ++i) train_.push_back(make_pair(rng));
  val_.reserve(static_cast<std::size_t>(config_.val_size));
  for (std::int64_t i = 0; i < config_.val_size; ++i) val_.push_back(make_pair(rng));
}

TokenSeq SyntheticTranslationDataset::translate_reference(const TokenSeq& source) const {
  // 1) map each word through the bijection; 2) apply the reordering rule.
  TokenSeq out;
  out.reserve(source.size());
  for (std::int64_t tok : source) {
    const std::int64_t word = tok - kFirstWord;
    if (word < 0 || word >= config_.vocab)
      throw std::out_of_range("translate_reference: token out of range");
    out.push_back(mapping_[static_cast<std::size_t>(word)] + kFirstWord);
  }
  for (std::size_t i = 0; i + 1 < out.size(); i += 2) {
    switch (config_.reorder) {
      case ReorderRule::kNone:
        break;
      case ReorderRule::kSwapAdjacent:
        std::swap(out[i], out[i + 1]);
        break;
      case ReorderRule::kConditional:
        if ((source[i] - kFirstWord) % 2 == 0) std::swap(out[i], out[i + 1]);
        break;
    }
  }
  return out;
}

SentencePair SyntheticTranslationDataset::make_pair(Rng& rng) const {
  const std::int64_t len =
      config_.min_len + static_cast<std::int64_t>(rng.randint(
                            static_cast<std::uint64_t>(config_.max_len - config_.min_len + 1)));
  SentencePair p;
  p.source.reserve(static_cast<std::size_t>(len));
  for (std::int64_t i = 0; i < len; ++i)
    p.source.push_back(kFirstWord + static_cast<std::int64_t>(rng.randint(
                                        static_cast<std::uint64_t>(config_.vocab))));
  p.target = translate_reference(p.source);
  return p;
}

BucketedTranslationData::BucketedTranslationData(
    const SyntheticTranslationDataset::Config& config, std::int64_t batch_size)
    : dataset_(config), batch_size_(static_cast<std::size_t>(batch_size)),
      buckets_(static_cast<std::size_t>(config.max_len + 1)) {
  for (std::int64_t i = 0; i < dataset_.train_size(); ++i)
    buckets_[dataset_.train(i).source.size()].push_back(i);
}

void BucketedTranslationData::train_epoch(
    Rng& rng, const std::function<void(const TranslationBatch&)>& step) {
  std::vector<std::pair<std::size_t, std::size_t>> starts;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    rng.shuffle(buckets_[b]);
    for (std::size_t off = 0; off < buckets_[b].size(); off += batch_size_)
      starts.emplace_back(b, off);
  }
  rng.shuffle(starts);
  for (const auto& [b, off] : starts) {
    TranslationBatch batch;
    for (std::size_t k = off; k < std::min(off + batch_size_, buckets_[b].size()); ++k) {
      const SentencePair& pair = dataset_.train(buckets_[b][k]);
      batch.src.push_back(pair.source);
      TokenSeq& in = batch.tgt_in.emplace_back(1, kBos);
      in.insert(in.end(), pair.target.begin(), pair.target.end());
      batch.targets.insert(batch.targets.end(), pair.target.begin(), pair.target.end());
      batch.targets.push_back(kEos);
    }
    step(batch);
  }
}

std::vector<std::pair<std::string, std::vector<std::int64_t>*>>
BucketedTranslationData::bucket_order() {
  std::vector<std::pair<std::string, std::vector<std::int64_t>*>> lists;
  for (std::size_t len = 0; len < buckets_.size(); ++len)
    lists.emplace_back("bucket_len" + std::to_string(len), &buckets_[len]);
  return lists;
}

}  // namespace mlperf::data
