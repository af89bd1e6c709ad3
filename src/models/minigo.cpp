#include "models/minigo.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "metrics/metrics.h"
#include "nn/functional.h"

namespace mlperf::models {

using autograd::Variable;
using go::Board;
using go::Move;
using go::Stone;
using tensor::Tensor;

namespace {

// Writes board_planes(board) into planes[0, 3 n n), which holds zeros.
void write_board_planes(const Board& board, float* planes) {
  const std::int64_t n = board.size();
  const Stone me = board.to_play();
  const Stone opp = go::opponent(me);
  for (std::int64_t p = 0; p < n * n; ++p) {
    const Stone s = board.at(p);
    if (s == me) planes[p] = 1.0f;
    else if (s == opp) planes[n * n + p] = 1.0f;
    planes[2 * n * n + p] = me == Stone::kBlack ? 1.0f : 0.0f;
  }
}

}  // namespace

Tensor board_planes(const Board& board) {
  const std::int64_t n = board.size();
  Tensor planes({3, n, n});
  write_board_planes(board, planes.data());
  return planes;
}

PolicyValueNet::PolicyValueNet(const Config& config, tensor::Rng& rng)
    : config_(config),
      stem_(3, config.channels, 3, 1, 1, rng),
      stem_bn_(config.channels),
      policy_conv_(config.channels, 2, 1, 1, 0, rng),
      policy_bn_(2),
      policy_fc_(2 * config.board_size * config.board_size,
                 config.board_size * config.board_size + 1, rng),
      value_conv_(config.channels, 1, 1, 1, 0, rng),
      value_bn_(1),
      value_fc1_(config.board_size * config.board_size, 16, rng),
      value_fc2_(16, 1, rng) {
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);
  for (std::int64_t b = 0; b < config.blocks; ++b) {
    Block blk;
    blk.c1 = std::make_unique<nn::Conv2d>(config.channels, config.channels, 3, 1, 1, rng);
    blk.b1 = std::make_unique<nn::BatchNorm2d>(config.channels);
    blk.c2 = std::make_unique<nn::Conv2d>(config.channels, config.channels, 3, 1, 1, rng);
    blk.b2 = std::make_unique<nn::BatchNorm2d>(config.channels);
    register_module("block" + std::to_string(b) + "_c1", *blk.c1);
    register_module("block" + std::to_string(b) + "_b1", *blk.b1);
    register_module("block" + std::to_string(b) + "_c2", *blk.c2);
    register_module("block" + std::to_string(b) + "_b2", *blk.b2);
    blocks_.push_back(std::move(blk));
  }
  register_module("policy_conv", policy_conv_);
  register_module("policy_bn", policy_bn_);
  register_module("policy_fc", policy_fc_);
  register_module("value_conv", value_conv_);
  register_module("value_bn", value_bn_);
  register_module("value_fc1", value_fc1_);
  register_module("value_fc2", value_fc2_);
}

PolicyValueNet::Output PolicyValueNet::forward(const Variable& planes) {
  const std::int64_t n = planes.shape()[0];
  const std::int64_t bs = config_.board_size;
  Variable x = autograd::relu(stem_bn_.forward(stem_.forward(planes)));
  for (auto& blk : blocks_) {
    Variable y = autograd::relu(blk.b1->forward(blk.c1->forward(x)));
    y = blk.b2->forward(blk.c2->forward(y));
    x = autograd::add_relu(x, y);  // fused residual-add+ReLU
  }
  Variable p = autograd::relu(policy_bn_.forward(policy_conv_.forward(x)));
  Variable policy = policy_fc_.forward(autograd::reshape(p, {n, 2 * bs * bs}));
  Variable v = autograd::relu(value_bn_.forward(value_conv_.forward(x)));
  Variable value = autograd::tanh_op(
      value_fc2_.forward(value_fc1_.forward_relu(autograd::reshape(v, {n, bs * bs}))));
  return {policy, value};
}

std::pair<std::vector<float>, float> PolicyValueNet::infer(const Board& board) {
  autograd::NoGradGuard no_grad;  // forward only: record no graph
  const bool was_training = training();
  set_training(false);
  Tensor batch({1, 3, board.size(), board.size()});
  write_board_planes(board, batch.data());
  Output out = forward(Variable(std::move(batch)));
  set_training(was_training);
  const Tensor probs = out.policy_logits.value().softmax_last();
  return {probs.vec(), out.value.value()[0]};
}

// ---- MCTS -------------------------------------------------------------------

struct Mcts::Node {
  bool expanded = false;
  float value = 0.0f;
  std::vector<Move> moves;
  std::vector<float> priors;
  std::vector<std::int64_t> visits;
  std::vector<float> value_sum;
  std::vector<std::unique_ptr<Node>> children;
};

float Mcts::simulate(Node& node, const Board& board, tensor::Rng& rng) {
  if (board.game_over()) {
    // Terminal: Tromp-Taylor result from the *current* player's view.
    const float score = board.tromp_taylor_score();
    const float black_result = score > 0 ? 1.0f : (score < 0 ? -1.0f : 0.0f);
    return board.to_play() == Stone::kBlack ? black_result : -black_result;
  }
  if (!node.expanded) {
    auto [prior, value] = evaluator_(board);
    node.moves = board.legal_moves();
    node.priors.resize(node.moves.size());
    const std::int64_t pass_idx = board.num_points();
    float total = 0.0f;
    for (std::size_t i = 0; i < node.moves.size(); ++i) {
      const std::int64_t idx = node.moves[i].is_pass() ? pass_idx : node.moves[i].point;
      node.priors[i] = std::max(prior[static_cast<std::size_t>(idx)], 1e-6f);
      total += node.priors[i];
    }
    for (auto& p : node.priors) p /= total;
    node.visits.assign(node.moves.size(), 0);
    node.value_sum.assign(node.moves.size(), 0.0f);
    node.children.resize(node.moves.size());
    node.expanded = true;
    return value;
  }
  // PUCT selection.
  std::int64_t total_visits = 0;
  for (std::int64_t v : node.visits) total_visits += v;
  const float sqrt_total = std::sqrt(static_cast<float>(total_visits) + 1.0f);
  std::size_t best = 0;
  float best_score = -1e30f;
  for (std::size_t i = 0; i < node.moves.size(); ++i) {
    const float q = node.visits[i] > 0
                        ? node.value_sum[i] / static_cast<float>(node.visits[i])
                        : 0.0f;
    const float u = config_.c_puct * node.priors[i] * sqrt_total /
                    (1.0f + static_cast<float>(node.visits[i]));
    const float s = q + u;
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  Board next = board;
  next.play(node.moves[best]);
  if (!node.children[best]) node.children[best] = std::make_unique<Node>();
  const float child_value = simulate(*node.children[best], next, rng);
  const float v = -child_value;  // value flips with the player to move
  node.visits[best] += 1;
  node.value_sum[best] += v;
  return v;
}

std::vector<float> Mcts::search(const Board& root, tensor::Rng& rng) {
  Node node;
  // Expand the root once, then optionally mix exploration noise into priors.
  simulate(node, root, rng);
  if (config_.dirichlet_weight > 0.0f && node.moves.size() > 1) {
    // Not Dirichlet noise: u^(1/alpha) with u uniform is a Beta(alpha, 1)
    // draw (only the alpha < 1 boost factor of Marsaglia-Tsang's Gamma(alpha)
    // sampler, without its Gamma(alpha + 1) draw), normalized. Every trained
    // MiniGo bit depends on this draw, so it stays; see DESIGN.md.
    std::vector<float> noise(node.priors.size());
    float total = 0.0f;
    for (auto& x : noise) {
      const float u = static_cast<float>(rng.uniform()) + 1e-9f;
      const float g = static_cast<float>(std::pow(u, 1.0 / config_.dirichlet_alpha));
      x = g;
      total += g;
    }
    if (total > 0.0f)
      for (std::size_t i = 0; i < node.priors.size(); ++i)
        node.priors[i] = (1.0f - config_.dirichlet_weight) * node.priors[i] +
                         config_.dirichlet_weight * noise[i] / total;
  }
  for (std::int64_t s = 1; s < config_.simulations; ++s) simulate(node, root, rng);

  std::vector<float> pi(static_cast<std::size_t>(root.num_points() + 1), 0.0f);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < node.moves.size(); ++i) total += node.visits[i];
  if (total == 0) total = 1;
  for (std::size_t i = 0; i < node.moves.size(); ++i) {
    const std::int64_t idx =
        node.moves[i].is_pass() ? root.num_points() : node.moves[i].point;
    pi[static_cast<std::size_t>(idx)] =
        static_cast<float>(node.visits[i]) / static_cast<float>(total);
  }
  return pi;
}

Move Mcts::select_move(const std::vector<float>& visits, const Board& board, float temperature,
                       tensor::Rng& rng) {
  const std::int64_t pass_idx = board.num_points();
  if (temperature <= 0.0f) {
    std::int64_t best = 0;
    for (std::int64_t i = 1; i <= pass_idx; ++i)
      if (visits[static_cast<std::size_t>(i)] > visits[static_cast<std::size_t>(best)]) best = i;
    return best == pass_idx ? Move::pass() : Move::at(best);
  }
  const double r = rng.uniform();
  double cum = 0.0;
  for (std::int64_t i = 0; i <= pass_idx; ++i) {
    cum += visits[static_cast<std::size_t>(i)];
    if (r <= cum) return i == pass_idx ? Move::pass() : Move::at(i);
  }
  return Move::pass();
}

SelfPlayResult self_play_game(const Mcts::Config& mcts_config, const Mcts::Evaluator& evaluator,
                              std::int64_t board_size, float komi, std::int64_t max_moves,
                              std::int64_t temperature_moves, tensor::Rng& rng) {
  SelfPlayResult result;
  result.record.board_size = board_size;
  result.record.komi = komi;
  Board board(board_size, komi);
  Mcts mcts(mcts_config, evaluator);
  std::vector<Stone> to_play_history;
  while (!board.game_over() && board.move_count() < max_moves) {
    const std::vector<float> pi = mcts.search(board, rng);
    SelfPlayExample ex;
    ex.planes = board_planes(board);
    ex.pi = pi;
    result.examples.push_back(std::move(ex));
    to_play_history.push_back(board.to_play());
    const float temp = board.move_count() < temperature_moves ? 1.0f : 0.0f;
    Move m = Mcts::select_move(pi, board, temp, rng);
    if (!board.is_legal(m)) m = Move::pass();  // visits can point at stale moves
    board.play(m);
    result.record.moves.push_back(m);
  }
  const Stone winner = board.winner();
  result.record.winner = winner;
  for (std::size_t i = 0; i < result.examples.size(); ++i) {
    const Stone player = to_play_history[i];
    result.examples[i].z =
        winner == Stone::kEmpty ? 0.0f : (winner == player ? 1.0f : -1.0f);
  }
  return result;
}

Mcts::Evaluator heuristic_evaluator() {
  return [](const Board& board) {
    const std::int64_t n = board.num_points();
    std::vector<float> prior(static_cast<std::size_t>(n + 1),
                             1.0f / static_cast<float>(n + 1));
    // Value: squashed Tromp-Taylor score from the side to play.
    float score = board.tromp_taylor_score();  // black perspective
    if (board.to_play() == Stone::kWhite) score = -score;
    return std::make_pair(prior, std::tanh(score / 10.0f));
  };
}

// ---- workload ----------------------------------------------------------------

MiniGoWorkload::MiniGoWorkload(Config config) : config_(std::move(config)), rng_(1) {
  // Every reference game then has at least one move, so evaluate() always
  // has something to predict.
  if (config_.reference_games < 1 || config_.reference_moves_per_game < 1 ||
      config_.max_game_moves < 1)
    throw std::invalid_argument(
        "MiniGoWorkload: reference_games, reference_moves_per_game and max_game_moves "
        "must be >= 1");
  config_.model.board_size = config_.board_size;
}

void MiniGoWorkload::prepare_data() {
  // Reference games: the teacher's MCTS is independent of the run seed, so
  // every run predicts against the same "pro games" (as with real data).
  references_.clear();
  reference_examples_.clear();
  tensor::Rng ref_rng(0xD0D0CAFEULL);
  Mcts::Config teacher = config_.mcts;
  teacher.simulations = config_.reference_teacher_sims;
  teacher.dirichlet_weight = 0.1f;  // mild diversity between reference games
  for (std::int64_t g = 0; g < config_.reference_games; ++g) {
    SelfPlayResult game =
        self_play_game(teacher, heuristic_evaluator(), config_.board_size, config_.komi,
                       config_.max_game_moves, /*temperature_moves=*/4, ref_rng);
    references_.push_back(std::move(game.record));
    for (auto& ex : game.examples) reference_examples_.push_back(std::move(ex));
  }
}

void MiniGoWorkload::build_model(std::uint64_t seed) {
  rng_ = tensor::Rng(seed);
  if (config_.nondeterministic_scheduling) {
    // Fig. 2's fixed-seed variability: mix in a wall-clock-derived value, the
    // analogue of thread-scheduling nondeterminism in the real pipeline.
    const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
    rng_ = tensor::Rng(seed ^ static_cast<std::uint64_t>(now));
  }
  tensor::Rng init_rng = rng_.split();
  net_ = std::make_unique<PolicyValueNet>(config_.model, init_rng);
  optimizer_ = std::make_unique<optim::SgdMomentum>(net_->parameters(), config_.momentum);
  replay_.clear();
  // The most positions infer() meets between two clears: every simulation of
  // an epoch's self-play plus every evaluate() position. Reserving that much
  // up front keeps the storage from moving while it fills.
  cache_capacity_ = static_cast<std::size_t>(
      config_.selfplay_games_per_epoch * config_.max_game_moves * config_.mcts.simulations +
      config_.reference_games * config_.reference_moves_per_game);
  const auto words = static_cast<std::size_t>(config_.board_size * config_.board_size / 32 + 1);
  cache_keys_.reserve(cache_capacity_ * words);
  cache_priors_.reserve(cache_capacity_ * static_cast<std::size_t>(net_->num_moves()));
  cache_values_.reserve(cache_capacity_);
  std::size_t slots = 1;
  while (slots < 2 * cache_capacity_) slots *= 2;  // at most half full
  cache_slots_.assign(slots, -1);
  clear_infer_cache();
  cache_hits_ = cache_misses_ = 0;
}

void MiniGoWorkload::clear_infer_cache() {
  cache_keys_.clear();
  cache_priors_.clear();
  cache_values_.clear();
  std::fill(cache_slots_.begin(), cache_slots_.end(), -1);
}

std::pair<std::vector<float>, float> MiniGoWorkload::infer(const Board& board) {
  if (!net_) throw std::logic_error("MiniGoWorkload: not prepared");
  if (board.size() != config_.board_size)
    throw std::invalid_argument("MiniGoWorkload::infer: board size differs from the net's");
  // The key: go::Stone's two bits per point, then one for the side to play.
  const std::int64_t points = board.num_points();
  const auto words = static_cast<std::size_t>(points / 32 + 1);
  std::array<std::uint64_t, Board::kMaxPoints / 32 + 1> key{};
  for (std::int64_t p = 0; p < points; ++p)
    key[static_cast<std::size_t>(p / 32)] |= static_cast<std::uint64_t>(board.at(p))
                                             << (2 * (p % 32));
  if (board.to_play() == Stone::kWhite)
    key[words - 1] |= std::uint64_t{1} << (2 * (points % 32));

  const auto moves = static_cast<std::size_t>(net_->num_moves());
  const std::size_t mask = cache_slots_.size() - 1;
  // The stones' Zobrist hash, flipped for white to play, picks the slot.
  const std::uint64_t hash =
      board.position_hash() ^ (board.to_play() == Stone::kWhite ? 0x9e3779b97f4a7c15ULL : 0);
  const std::size_t home = hash & mask;
  std::size_t slot = home;
  for (; cache_slots_[slot] >= 0; slot = (slot + 1) & mask) {
    const auto e = static_cast<std::size_t>(cache_slots_[slot]);
    if (std::equal(key.begin(), key.begin() + words, cache_keys_.begin() + e * words)) {
      ++cache_hits_;
      const auto prior = cache_priors_.begin() + e * moves;
      return {std::vector<float>(prior, prior + moves), cache_values_[e]};
    }
  }
  ++cache_misses_;
  auto out = net_->infer(board);
  if (cache_values_.size() == cache_capacity_) {  // only calls from outside the workload
    clear_infer_cache();
    slot = home;
  }
  cache_slots_[slot] = static_cast<std::int32_t>(cache_values_.size());
  cache_keys_.insert(cache_keys_.end(), key.begin(), key.begin() + words);
  cache_priors_.insert(cache_priors_.end(), out.first.begin(), out.first.end());
  cache_values_.push_back(out.second);
  return out;
}

std::map<std::string, std::int64_t> MiniGoWorkload::counters() const {
  return {{"infer_cache_hits", cache_hits_}, {"infer_cache_misses", cache_misses_}};
}

void MiniGoWorkload::train_batch(const std::vector<const SelfPlayExample*>& batch) {
  const std::int64_t n = static_cast<std::int64_t>(batch.size());
  const std::int64_t bs = config_.board_size;
  const std::int64_t num_moves = bs * bs + 1;
  Tensor planes({n, 3, bs, bs});
  Tensor pi({n, num_moves});
  Tensor z({n, 1});
  for (std::int64_t i = 0; i < n; ++i) {
    const SelfPlayExample& ex = *batch[static_cast<std::size_t>(i)];
    std::copy(ex.planes.vec().begin(), ex.planes.vec().end(),
              planes.vec().begin() + i * 3 * bs * bs);
    for (std::int64_t m = 0; m < num_moves; ++m)
      pi[i * num_moves + m] = ex.pi[static_cast<std::size_t>(m)];
    z[i] = ex.z;
  }
  net_->set_training(true);
  PolicyValueNet::Output out = net_->forward(Variable(planes));
  // Policy loss: cross-entropy against the full MCTS distribution:
  // -sum pi * log_softmax(logits), averaged over the batch.
  Variable logp = autograd::log_softmax_last(out.policy_logits);
  Variable policy_loss =
      autograd::mul_scalar(autograd::sum_all(autograd::mul(Variable(pi), logp)),
                           -1.0f / static_cast<float>(n));
  Variable value_loss = nn::mse(out.value, z);
  Variable loss = autograd::add(policy_loss, value_loss);
  optimizer_->zero_grad();
  loss.backward();
  optimizer_->step(config_.lr);
}

void MiniGoWorkload::train_epoch() {
  if (!net_) throw std::logic_error("MiniGoWorkload: not prepared");
  // 1) Self-play data generation with the current net.
  Mcts::Evaluator eval = [this](const Board& b) { return infer(b); };
  for (std::int64_t g = 0; g < config_.selfplay_games_per_epoch; ++g) {
    SelfPlayResult game =
        self_play_game(config_.mcts, eval, config_.board_size, config_.komi,
                       config_.max_game_moves, config_.temperature_moves, rng_);
    for (auto& ex : game.examples) {
      replay_.push_back(std::move(ex));
      if (static_cast<std::int64_t>(replay_.size()) > config_.replay_capacity)
        replay_.pop_front();
    }
  }
  // 2) Gradient steps: batches mix self-play replay with reference-game
  //    positions per config_.reference_mix (see header). They change the
  //    weights and BatchNorm statistics, so every cached answer goes stale.
  if (replay_.empty() && reference_examples_.empty()) return;
  clear_infer_cache();
  for (std::int64_t b = 0; b < config_.train_batches_per_epoch; ++b) {
    std::vector<const SelfPlayExample*> batch;
    batch.reserve(static_cast<std::size_t>(config_.batch_size));
    for (std::int64_t i = 0; i < config_.batch_size; ++i) {
      const bool from_ref =
          !reference_examples_.empty() &&
          (replay_.empty() || rng_.uniform() < config_.reference_mix);
      if (from_ref) {
        batch.push_back(
            &reference_examples_[static_cast<std::size_t>(rng_.randint(reference_examples_.size()))]);
      } else {
        batch.push_back(&replay_[static_cast<std::size_t>(rng_.randint(replay_.size()))]);
      }
    }
    train_batch(batch);
  }
}

double MiniGoWorkload::evaluate() {
  if (!net_) throw std::logic_error("MiniGoWorkload: not prepared");
  autograd::NoGradGuard no_grad;  // forward only: record no graph
  std::vector<std::int64_t> predicted, reference;
  for (const auto& game : references_) {
    Board board(game.board_size, game.komi);
    const std::int64_t limit =
        std::min<std::int64_t>(static_cast<std::int64_t>(game.moves.size()),
                               config_.reference_moves_per_game);
    for (std::int64_t m = 0; m < limit; ++m) {
      auto [prior, value] = infer(board);
      (void)value;
      // Predicted move: highest-probability *legal* move.
      std::int64_t best = -1;
      float best_p = -1.0f;
      for (const Move& mv : board.legal_moves()) {
        const std::int64_t idx = mv.is_pass() ? board.num_points() : mv.point;
        if (prior[static_cast<std::size_t>(idx)] > best_p) {
          best_p = prior[static_cast<std::size_t>(idx)];
          best = idx;
        }
      }
      predicted.push_back(best);
      const Move& ref = game.moves[static_cast<std::size_t>(m)];
      reference.push_back(ref.is_pass() ? board.num_points() : ref.point);
      board.play(ref);
    }
  }
  return metrics::top1_accuracy(predicted, reference);
}

std::map<std::string, double> MiniGoWorkload::hyperparameters() const {
  return {{"global_batch_size", static_cast<double>(config_.batch_size)},
          {"learning_rate", config_.lr},
          {"selfplay_games_per_epoch", static_cast<double>(config_.selfplay_games_per_epoch)},
          {"mcts_simulations", static_cast<double>(config_.mcts.simulations)}};
}

}  // namespace mlperf::models
