#include "reference/go_ref.h"

#include <array>
#include <stdexcept>

#include "tensor/rng.h"

namespace mlperf::go {

namespace {

constexpr std::int64_t kMaxPoints = 19 * 19;

// Same seed and draw order as go::Board's table.
const std::array<std::array<std::uint64_t, 2>, kMaxPoints>& zobrist_table() {
  static const auto table = [] {
    std::array<std::array<std::uint64_t, 2>, kMaxPoints> t{};
    tensor::Rng rng(0x60BA9D5EED5EEDULL);
    for (auto& row : t)
      for (auto& v : row) v = rng.next_u64();
    return t;
  }();
  return table;
}

}  // namespace

RefBoard::RefBoard(std::int64_t size, float komi) : size_(size), komi_(komi) {
  if (size < 2 || size > 19) throw std::invalid_argument("RefBoard: size must be in [2, 19]");
  grid_.assign(static_cast<std::size_t>(num_points()), Stone::kEmpty);
  history_.insert(hash_);
}

std::vector<std::int64_t> RefBoard::neighbors(std::int64_t p) const {
  const std::int64_t r = p / size_, c = p % size_;
  std::vector<std::int64_t> out;
  out.reserve(4);
  if (r > 0) out.push_back(p - size_);
  if (r < size_ - 1) out.push_back(p + size_);
  if (c > 0) out.push_back(p - 1);
  if (c < size_ - 1) out.push_back(p + 1);
  return out;
}

RefBoard::GroupInfo RefBoard::group_at(std::int64_t p) const {
  GroupInfo info;
  const Stone color = at(p);
  if (color == Stone::kEmpty) return info;
  std::vector<bool> visited(static_cast<std::size_t>(num_points()), false);
  std::vector<bool> lib_seen(static_cast<std::size_t>(num_points()), false);
  std::vector<std::int64_t> stack{p};
  visited[static_cast<std::size_t>(p)] = true;
  while (!stack.empty()) {
    const std::int64_t q = stack.back();
    stack.pop_back();
    info.stones.push_back(q);
    for (std::int64_t nb : neighbors(q)) {
      const Stone s = at(nb);
      if (s == color && !visited[static_cast<std::size_t>(nb)]) {
        visited[static_cast<std::size_t>(nb)] = true;
        stack.push_back(nb);
      } else if (s == Stone::kEmpty && !lib_seen[static_cast<std::size_t>(nb)]) {
        lib_seen[static_cast<std::size_t>(nb)] = true;
        ++info.liberties;
      }
    }
  }
  return info;
}

std::int64_t RefBoard::liberties(std::int64_t p) const { return group_at(p).liberties; }

void RefBoard::set_stone(std::int64_t p, Stone s) {
  const Stone old = grid_[static_cast<std::size_t>(p)];
  if (old != Stone::kEmpty)
    hash_ ^= zobrist_table()[static_cast<std::size_t>(p)][static_cast<std::size_t>(old) - 1];
  if (s != Stone::kEmpty)
    hash_ ^= zobrist_table()[static_cast<std::size_t>(p)][static_cast<std::size_t>(s) - 1];
  grid_[static_cast<std::size_t>(p)] = s;
}

void RefBoard::remove_group(const std::vector<std::int64_t>& stones) {
  for (std::int64_t p : stones) set_stone(p, Stone::kEmpty);
}

std::optional<std::uint64_t> RefBoard::hash_after(Move m) const {
  if (m.is_pass()) return hash_;
  RefBoard scratch = *this;
  scratch.history_.clear();  // avoid superko recursion in the scratch
  const Stone me = scratch.to_play_;
  scratch.set_stone(m.point, me);
  const Stone opp = opponent(me);
  for (std::int64_t nb : scratch.neighbors(m.point)) {
    if (scratch.at(nb) == opp) {
      const GroupInfo g = scratch.group_at(nb);
      if (g.liberties == 0) scratch.remove_group(g.stones);
    }
  }
  if (scratch.group_at(m.point).liberties == 0) return std::nullopt;  // suicide
  return scratch.hash_;
}

bool RefBoard::is_legal(Move m) const {
  if (game_over()) return false;
  if (m.is_pass()) return true;
  if (m.point < 0 || m.point >= num_points()) return false;
  if (at(m.point) != Stone::kEmpty) return false;
  const auto h = hash_after(m);
  if (!h) return false;                  // suicide
  return history_.count(*h) == 0;        // positional superko
}

std::vector<Move> RefBoard::legal_moves() const {
  std::vector<Move> out;
  if (game_over()) return out;
  for (std::int64_t p = 0; p < num_points(); ++p) {
    const Move m = Move::at(p);
    if (is_legal(m)) out.push_back(m);
  }
  out.push_back(Move::pass());
  return out;
}

void RefBoard::play(Move m) {
  if (!is_legal(m)) throw std::invalid_argument("RefBoard::play: illegal move");
  if (m.is_pass()) {
    ++consecutive_passes_;
  } else {
    consecutive_passes_ = 0;
    const Stone me = to_play_;
    set_stone(m.point, me);
    const Stone opp = opponent(me);
    for (std::int64_t nb : neighbors(m.point)) {
      if (at(nb) == opp) {
        const GroupInfo g = group_at(nb);
        if (g.liberties == 0) remove_group(g.stones);
      }
    }
  }
  to_play_ = opponent(to_play_);
  history_.insert(hash_);
}

float RefBoard::tromp_taylor_score() const {
  float black = 0.0f, white = 0.0f;
  std::vector<bool> visited(static_cast<std::size_t>(num_points()), false);
  for (std::int64_t p = 0; p < num_points(); ++p) {
    const Stone s = at(p);
    if (s == Stone::kBlack) {
      black += 1.0f;
    } else if (s == Stone::kWhite) {
      white += 1.0f;
    } else if (!visited[static_cast<std::size_t>(p)]) {
      std::vector<std::int64_t> region, stack{p};
      visited[static_cast<std::size_t>(p)] = true;
      bool sees_black = false, sees_white = false;
      while (!stack.empty()) {
        const std::int64_t q = stack.back();
        stack.pop_back();
        region.push_back(q);
        for (std::int64_t nb : neighbors(q)) {
          const Stone ns = at(nb);
          if (ns == Stone::kEmpty && !visited[static_cast<std::size_t>(nb)]) {
            visited[static_cast<std::size_t>(nb)] = true;
            stack.push_back(nb);
          } else if (ns == Stone::kBlack) {
            sees_black = true;
          } else if (ns == Stone::kWhite) {
            sees_white = true;
          }
        }
      }
      if (sees_black && !sees_white) black += static_cast<float>(region.size());
      if (sees_white && !sees_black) white += static_cast<float>(region.size());
    }
  }
  return black - white - komi_;
}

}  // namespace mlperf::go
