#include "go/board.h"

#include <sstream>

#include "tensor/rng.h"

namespace mlperf::go {

namespace {

// Zobrist table: [point][color-1] for up to 19x19; generated deterministically.
const std::array<std::array<std::uint64_t, 2>, Board::kMaxPoints>& zobrist_table() {
  static const auto table = [] {
    std::array<std::array<std::uint64_t, 2>, Board::kMaxPoints> t{};
    tensor::Rng rng(0x60BA9D5EED5EEDULL);
    for (auto& row : t)
      for (auto& v : row) v = rng.next_u64();
    return t;
  }();
  return table;
}

std::uint64_t zobrist(std::int64_t p, Stone s) {
  return zobrist_table()[static_cast<std::size_t>(p)][static_cast<std::size_t>(s) - 1];
}

}  // namespace

struct Board::Adjacency {
  std::array<std::array<std::int16_t, 4>, kMaxPoints> nb{};  // up, down, left, right
  std::array<std::uint8_t, kMaxPoints> count{};
};

const Board::Adjacency& Board::adjacency(std::int64_t size) {
  static const auto tables = [] {
    std::array<Adjacency, kMaxSize + 1> t{};
    for (std::int64_t n = 2; n <= kMaxSize; ++n) {
      Adjacency& a = t[static_cast<std::size_t>(n)];
      for (std::int64_t p = 0; p < n * n; ++p) {
        const std::int64_t r = p / n, c = p % n;
        const auto add = [&](std::int64_t q) {
          a.nb[static_cast<std::size_t>(p)][a.count[static_cast<std::size_t>(p)]++] =
              static_cast<std::int16_t>(q);
        };
        if (r > 0) add(p - n);
        if (r < n - 1) add(p + n);
        if (c > 0) add(p - 1);
        if (c < n - 1) add(p + 1);
      }
    }
    return t;
  }();
  return tables[static_cast<std::size_t>(size)];
}

Board::Board(std::int64_t size, float komi) : size_(size), komi_(komi) {
  if (size < 2 || size > kMaxSize) throw std::invalid_argument("Board: size must be in [2, 19]");
  adj_ = &adjacency(size);
}

bool Board::seen_before(std::uint64_t h) const {
  if (h == 0) return true;
  const std::size_t mask = history_.size() - 1;
  for (std::size_t i = h & mask; history_[i] != 0; i = (i + 1) & mask)
    if (history_[i] == h) return true;
  return false;
}

void Board::remember(std::uint64_t h) {
  const auto place = [](std::vector<std::uint64_t>& table, std::uint64_t v) {
    const std::size_t mask = table.size() - 1;
    std::size_t i = v & mask;
    while (table[i] != 0) i = (i + 1) & mask;
    table[i] = v;
  };
  if (2 * (history_count_ + 1) > history_.size()) {
    std::vector<std::uint64_t> grown(2 * history_.size(), 0);
    for (std::uint64_t v : history_)
      if (v != 0) place(grown, v);
    history_.swap(grown);
  }
  place(history_, h);
  ++history_count_;
}

std::vector<std::int64_t> Board::neighbors(std::int64_t p) const {
  const auto& nb = adj_->nb[static_cast<std::size_t>(p)];
  return {nb.begin(), nb.begin() + adj_->count[static_cast<std::size_t>(p)]};
}

template <class OnBorder>
bool Board::flood(std::int64_t q, Marks& seen, PointList& points, OnBorder&& on_border) const {
  const Stone color = grid_[static_cast<std::size_t>(q)];
  seen[static_cast<std::size_t>(q)] = true;
  std::int32_t i = points.n;
  points.p[static_cast<std::size_t>(points.n++)] = static_cast<std::int16_t>(q);
  for (; i < points.n; ++i) {
    const auto s = static_cast<std::size_t>(points.p[static_cast<std::size_t>(i)]);
    for (std::uint8_t k = 0; k < adj_->count[s]; ++k) {
      const std::int16_t r = adj_->nb[s][k];
      const Stone t = grid_[static_cast<std::size_t>(r)];
      if (t != color) {
        if (on_border(r, t)) return true;
      } else if (!seen[static_cast<std::size_t>(r)]) {
        seen[static_cast<std::size_t>(r)] = true;
        points.p[static_cast<std::size_t>(points.n++)] = r;
      }
    }
  }
  return false;
}

std::int64_t Board::liberties(std::int64_t p) const {
  if (at(p) == Stone::kEmpty) return 0;
  Marks seen, counted;
  PointList stones;
  std::int64_t n = 0;
  flood(p, seen, stones, [&](std::int64_t q, Stone s) {
    if (s == Stone::kEmpty && !counted[static_cast<std::size_t>(q)]) {
      counted[static_cast<std::size_t>(q)] = true;
      ++n;
    }
    return false;
  });
  return n;
}

std::optional<std::uint64_t> Board::hash_after(Move m, PointList& captured) const {
  captured.n = 0;
  if (game_over()) return std::nullopt;
  if (m.is_pass()) return hash_;
  const std::int64_t p = m.point;
  if (p < 0 || p >= num_points() || grid_[static_cast<std::size_t>(p)] != Stone::kEmpty)
    return std::nullopt;
  const Stone me = to_play_, opp = opponent(me);
  const auto& nb = adj_->nb[static_cast<std::size_t>(p)];
  const std::uint8_t degree = adj_->count[static_cast<std::size_t>(p)];
  const auto liberty_besides_p = [p](std::int64_t q, Stone s) {
    return s == Stone::kEmpty && q != p;
  };
  std::uint64_t h = hash_ ^ zobrist(p, me);
  bool breathes = false;  // the new stone's group keeps a liberty
  Marks seen;
  // An opponent group whose only liberty is p is captured. Its stones stay
  // marked, so a group touching p twice is XORed out once.
  for (std::uint8_t k = 0; k < degree; ++k) {
    const std::int64_t q = nb[k];
    const Stone s = grid_[static_cast<std::size_t>(q)];
    if (s == Stone::kEmpty) breathes = true;
    if (s != opp || seen[static_cast<std::size_t>(q)]) continue;
    const std::int32_t first = captured.n;
    if (flood(q, seen, captured, liberty_besides_p)) {
      // It survives. Unmark the partial fill: a later neighbour in the same
      // group must scan it afresh to reach the liberty.
      for (std::int32_t i = first; i < captured.n; ++i)
        seen[static_cast<std::size_t>(captured.p[static_cast<std::size_t>(i)])] = false;
      captured.n = first;
    } else {
      for (std::int32_t i = first; i < captured.n; ++i)
        h ^= zobrist(captured.p[static_cast<std::size_t>(i)], opp);
      breathes = true;
    }
  }
  // With no empty neighbour and no capture, the stone lives only through a
  // friendly group that has a liberty other than p.
  if (!breathes) {
    PointList friends;
    for (std::uint8_t k = 0; k < degree && !breathes; ++k) {
      const std::int64_t q = nb[k];
      breathes = grid_[static_cast<std::size_t>(q)] == me && !seen[static_cast<std::size_t>(q)] &&
                 flood(q, seen, friends, liberty_besides_p);
    }
  }
  if (!breathes || seen_before(h)) return std::nullopt;  // suicide, positional superko
  return h;
}

bool Board::is_legal(Move m) const {
  PointList captured;
  return hash_after(m, captured).has_value();
}

std::vector<Move> Board::legal_moves() const {
  std::vector<Move> out;
  if (game_over()) return out;
  PointList captured;
  for (std::int64_t p = 0; p < num_points(); ++p)
    if (hash_after(Move::at(p), captured)) out.push_back(Move::at(p));
  out.push_back(Move::pass());
  return out;
}

void Board::play(Move m) {
  PointList captured;
  const auto h = hash_after(m, captured);
  if (!h) throw std::invalid_argument("Board::play: illegal move");
  if (m.is_pass()) {
    ++consecutive_passes_;
  } else {
    consecutive_passes_ = 0;
    grid_[static_cast<std::size_t>(m.point)] = to_play_;
    for (std::int32_t i = 0; i < captured.n; ++i)
      grid_[static_cast<std::size_t>(captured.p[static_cast<std::size_t>(i)])] = Stone::kEmpty;
    hash_ = *h;
    remember(hash_);
  }
  to_play_ = opponent(to_play_);
  ++move_count_;
}

float Board::tromp_taylor_score() const {
  // Area scoring: stones + empty regions bordered exclusively by one colour.
  std::int64_t black = 0, white = 0;
  Marks seen;
  PointList region;
  for (std::int64_t p = 0; p < num_points(); ++p) {
    const Stone s = grid_[static_cast<std::size_t>(p)];
    if (s == Stone::kBlack) {
      ++black;
    } else if (s == Stone::kWhite) {
      ++white;
    } else if (!seen[static_cast<std::size_t>(p)]) {
      bool sees_black = false, sees_white = false;
      region.n = 0;
      flood(p, seen, region, [&](std::int64_t, Stone t) {
        (t == Stone::kBlack ? sees_black : sees_white) = true;
        return false;
      });
      if (sees_black && !sees_white) black += region.n;
      if (sees_white && !sees_black) white += region.n;
    }
  }
  // At most 361 points a side, so the counts convert to float exactly.
  return static_cast<float>(black) - static_cast<float>(white) - komi_;
}

Stone Board::winner() const {
  const float s = tromp_taylor_score();
  if (s > 0.0f) return Stone::kBlack;
  if (s < 0.0f) return Stone::kWhite;
  return Stone::kEmpty;
}

std::string Board::to_string() const {
  std::ostringstream os;
  for (std::int64_t r = 0; r < size_; ++r) {
    for (std::int64_t c = 0; c < size_; ++c) {
      switch (at(r, c)) {
        case Stone::kEmpty: os << '.'; break;
        case Stone::kBlack: os << 'X'; break;
        case Stone::kWhite: os << 'O'; break;
      }
    }
    os << '\n';
  }
  os << (to_play_ == Stone::kBlack ? "black" : "white") << " to play\n";
  return os.str();
}

}  // namespace mlperf::go
