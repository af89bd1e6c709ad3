#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "go/board.h"

namespace mlperf::go {

/// The Go rules as go::Board had them before its legality check stopped
/// copying the board, retained as the oracle of tests/test_go.cpp. Each
/// candidate move is simulated on a full copy of the board (history set
/// included): place the stone, remove opponent groups left without
/// liberties, then call the move suicide if its own group has none. The
/// Zobrist table is regenerated from the same seed, so position_hash() is
/// comparable with go::Board's bit for bit.
class RefBoard {
 public:
  explicit RefBoard(std::int64_t size = 9, float komi = 5.5f);

  std::int64_t size() const { return size_; }
  std::int64_t num_points() const { return size_ * size_; }
  Stone to_play() const { return to_play_; }
  Stone at(std::int64_t p) const { return grid_.at(static_cast<std::size_t>(p)); }
  bool game_over() const { return consecutive_passes_ >= 2; }
  std::uint64_t position_hash() const { return hash_; }

  bool is_legal(Move m) const;
  std::vector<Move> legal_moves() const;
  void play(Move m);
  float tromp_taylor_score() const;
  std::int64_t liberties(std::int64_t p) const;

 private:
  struct GroupInfo {
    std::vector<std::int64_t> stones;
    std::int64_t liberties = 0;
  };
  std::vector<std::int64_t> neighbors(std::int64_t p) const;
  GroupInfo group_at(std::int64_t p) const;
  void remove_group(const std::vector<std::int64_t>& stones);
  void set_stone(std::int64_t p, Stone s);
  /// Hash after hypothetically playing m (for superko); nullopt if suicide.
  std::optional<std::uint64_t> hash_after(Move m) const;

  std::int64_t size_;
  float komi_;
  std::vector<Stone> grid_;
  Stone to_play_ = Stone::kBlack;
  std::int64_t consecutive_passes_ = 0;
  std::uint64_t hash_ = 0;
  std::unordered_set<std::uint64_t> history_;  // positions seen (superko)
};

}  // namespace mlperf::go
