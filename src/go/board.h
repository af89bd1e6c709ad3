#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace mlperf::go {

enum class Stone : std::uint8_t { kEmpty = 0, kBlack = 1, kWhite = 2 };

inline Stone opponent(Stone s) {
  if (s == Stone::kBlack) return Stone::kWhite;
  if (s == Stone::kWhite) return Stone::kBlack;
  return Stone::kEmpty;
}

/// A move: a point index in [0, size*size) or pass().
struct Move {
  std::int64_t point = -1;  // -1 = pass

  static Move pass() { return Move{-1}; }
  static Move at(std::int64_t p) { return Move{p}; }
  bool is_pass() const { return point < 0; }
  bool operator==(const Move&) const = default;
};

/// Full Go rules on an N×N board (default 9×9, the paper's MiniGo board):
/// captures, suicide prohibition, positional superko (via Zobrist hashing of
/// all previous positions), two-pass game end, and Tromp-Taylor area scoring.
///
/// A Board owns no node-based container: the grid is inline and the
/// position history is one flat hash table, so copying a Board (once per
/// level of an MCTS descent) is a memcpy plus one allocation. Legality checks
/// never copy it: captures and suicide are read off the neighbouring
/// groups, and the resulting hash is XORed from the captured stones.
class Board {
 public:
  static constexpr std::int64_t kMaxSize = 19;
  static constexpr std::int64_t kMaxPoints = kMaxSize * kMaxSize;

  explicit Board(std::int64_t size = 9, float komi = 5.5f);

  std::int64_t size() const { return size_; }
  std::int64_t num_points() const { return size_ * size_; }
  float komi() const { return komi_; }
  Stone to_play() const { return to_play_; }
  Stone at(std::int64_t p) const {
    if (p < 0 || p >= num_points()) throw std::out_of_range("Board::at: point off the board");
    return grid_[static_cast<std::size_t>(p)];
  }
  Stone at(std::int64_t row, std::int64_t col) const { return at(row * size_ + col); }
  std::int64_t move_count() const { return move_count_; }
  bool game_over() const { return consecutive_passes_ >= 2; }

  /// Is this move legal for the side to play (occupancy, suicide, superko)?
  bool is_legal(Move m) const;

  /// All legal moves (including pass, which is always legal).
  std::vector<Move> legal_moves() const;

  /// Play a move; throws std::invalid_argument if illegal.
  void play(Move m);

  /// Tromp-Taylor area score from Black's perspective (stones + exclusive
  /// territory), minus komi. Positive = Black wins.
  float tromp_taylor_score() const;

  /// Winner under Tromp-Taylor (kEmpty = draw, impossible with half komi).
  Stone winner() const;

  /// Liberties of the group containing p (0 if p is empty).
  std::int64_t liberties(std::int64_t p) const;

  /// Zobrist hash of the current position (stones + side to play not mixed;
  /// superko in this implementation is positional).
  std::uint64_t position_hash() const { return hash_; }

  /// Orthogonal neighbours of a point.
  std::vector<std::int64_t> neighbors(std::int64_t p) const;

  std::string to_string() const;

 private:
  struct Adjacency;  // neighbour lists of every point, one shared table per size
  /// Points of one flood fill, in visiting order; doubles as its worklist.
  struct PointList {
    std::array<std::int16_t, kMaxPoints> p;
    std::int32_t n = 0;
  };
  using Marks = std::bitset<kMaxPoints>;

  static const Adjacency& adjacency(std::int64_t size);
  /// Flood-fills the group (or empty region) holding q into `points`,
  /// marking it in `seen`. Calls on_border(point, stone) for every
  /// neighbour of another colour, repeats included, and stops early,
  /// returning true, once that returns true.
  template <class OnBorder>
  bool flood(std::int64_t q, Marks& seen, PointList& points, OnBorder&& on_border) const;
  /// Position hash after the legal move m, or nullopt if m is illegal
  /// (occupied, off the board, suicide, superko, or the game is over).
  /// `captured` receives the stones m captures. Reads the board only.
  std::optional<std::uint64_t> hash_after(Move m, PointList& captured) const;
  /// Positional superko's memory: has hash h occurred in this game?
  bool seen_before(std::uint64_t h) const;
  /// Records an unseen, nonzero position hash.
  void remember(std::uint64_t h);

  std::int64_t size_;
  float komi_;
  const Adjacency* adj_ = nullptr;
  Stone to_play_ = Stone::kBlack;
  std::int64_t consecutive_passes_ = 0;
  std::int64_t move_count_ = 0;
  std::uint64_t hash_ = 0;
  std::array<Stone, kMaxPoints> grid_{};
  /// Every position of the game but the empty board, as an open-addressed
  /// set of Zobrist hashes: linear probing over a power-of-two table kept
  /// at most half full, 0 marking a free slot. Hash 0 is the empty board,
  /// where every game starts.
  std::vector<std::uint64_t> history_ = std::vector<std::uint64_t>(64, 0);
  std::size_t history_count_ = 0;
};

/// A finished or in-progress game record: the move sequence from an empty
/// board. Used both for MiniGo training data and as "human reference games"
/// for the move-prediction quality metric.
struct GameRecord {
  std::int64_t board_size = 9;
  float komi = 5.5f;
  std::vector<Move> moves;
  Stone winner = Stone::kEmpty;
};

}  // namespace mlperf::go
