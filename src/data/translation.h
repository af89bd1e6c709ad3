#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tensor/rng.h"

namespace mlperf::data {

/// Token ids. Reserved: 0 = PAD, 1 = BOS, 2 = EOS; "words" start at 3.
using TokenSeq = std::vector<std::int64_t>;

inline constexpr std::int64_t kPad = 0;
inline constexpr std::int64_t kBos = 1;
inline constexpr std::int64_t kEos = 2;
inline constexpr std::int64_t kFirstWord = 3;

struct SentencePair {
  TokenSeq source;  ///< no BOS/EOS
  TokenSeq target;  ///< no BOS/EOS; add via helpers at batch time
};

/// How the synthetic language pair reorders tokens after the vocabulary map.
enum class ReorderRule {
  kNone,         ///< pure token-wise mapping (easiest)
  kSwapAdjacent, ///< every adjacent pair swaps (fixed positional reordering)
  kConditional,  ///< a pair swaps iff its first source word id is even
};

/// Synthetic stand-in for WMT EN-DE (see DESIGN.md substitution table).
///
/// The "language pair" is a deterministic vocabulary bijection plus a local
/// reordering rule — a task a seq2seq model genuinely must *learn* (copying
/// alone scores poorly on BLEU), while remaining learnable at mini scale. The
/// default kSwapAdjacent rule gives reliable convergence in tens of seconds;
/// kConditional (reordering depends on token identity) is substantially
/// harder and is used by the difficulty ablation. The held-out set plays the
/// role of newstest2014.
class SyntheticTranslationDataset {
 public:
  struct Config {
    std::int64_t vocab = 32;        ///< word vocabulary (excludes specials)
    std::int64_t min_len = 4;
    std::int64_t max_len = 10;
    std::int64_t train_size = 384;
    std::int64_t val_size = 96;
    ReorderRule reorder = ReorderRule::kNone;
    std::uint64_t seed = 2020;
  };

  explicit SyntheticTranslationDataset(const Config& config);

  const Config& config() const { return config_; }
  /// Total vocab size including specials (= config.vocab + kFirstWord).
  std::int64_t vocab_size() const { return config_.vocab + kFirstWord; }
  std::int64_t train_size() const { return static_cast<std::int64_t>(train_.size()); }
  std::int64_t val_size() const { return static_cast<std::int64_t>(val_.size()); }
  const SentencePair& train(std::int64_t i) const { return train_.at(static_cast<std::size_t>(i)); }
  const SentencePair& val(std::int64_t i) const { return val_.at(static_cast<std::size_t>(i)); }

  /// The ground-truth transduction (for tests and for oracle BLEU).
  TokenSeq translate_reference(const TokenSeq& source) const;

 private:
  SentencePair make_pair(tensor::Rng& rng) const;

  Config config_;
  std::vector<std::int64_t> mapping_;  // bijection over word ids
  std::vector<SentencePair> train_;
  std::vector<SentencePair> val_;
};

/// One teacher-forced batch: the sources, the decoder inputs (BOS + target)
/// and the next-token targets (each target + EOS), flattened row by row.
struct TranslationBatch {
  std::vector<TokenSeq> src, tgt_in;
  std::vector<std::int64_t> targets;
};

/// The translation pair's train data path (GNMT and Transformer): the
/// dataset, its train sentences grouped by source length so that every batch
/// holds one length (neither encoder pads). Each epoch shuffles the groups
/// further in place, so their order is training state.
class BucketedTranslationData {
 public:
  BucketedTranslationData(const SyntheticTranslationDataset::Config& config,
                          std::int64_t batch_size);

  const SyntheticTranslationDataset& dataset() const { return dataset_; }

  /// Runs `step` on each batch of one epoch. Shuffles every bucket in place,
  /// in ascending length and empty ones included, then the list of
  /// (bucket, offset) batch starts: all of the epoch's rng draws.
  void train_epoch(tensor::Rng& rng, const std::function<void(const TranslationBatch&)>& step);

  /// The buckets' current order, one list per source length named
  /// "bucket_len<n>": for checkpoint::TrainingState::index_lists.
  std::vector<std::pair<std::string, std::vector<std::int64_t>*>> bucket_order();

 private:
  SyntheticTranslationDataset dataset_;
  std::size_t batch_size_;
  std::vector<std::vector<std::int64_t>> buckets_;
};

}  // namespace mlperf::data
