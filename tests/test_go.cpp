#include "go/board.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "models/minigo.h"
#include "reference/go_ref.h"
#include "tensor/rng.h"

namespace mlperf::go {
namespace {

std::int64_t pt(const Board& b, std::int64_t row, std::int64_t col) {
  return row * b.size() + col;
}

TEST(Board, StartsEmptyBlackToPlay) {
  Board b(9);
  EXPECT_EQ(b.size(), 9);
  EXPECT_EQ(b.to_play(), Stone::kBlack);
  EXPECT_FALSE(b.game_over());
  for (std::int64_t p = 0; p < 81; ++p) EXPECT_EQ(b.at(p), Stone::kEmpty);
}

TEST(Board, BadSizeThrows) {
  EXPECT_THROW(Board(1), std::invalid_argument);
  EXPECT_THROW(Board(20), std::invalid_argument);
}

TEST(Board, PlayAlternatesColors) {
  Board b(9);
  b.play(Move::at(0));
  EXPECT_EQ(b.at(0), Stone::kBlack);
  EXPECT_EQ(b.to_play(), Stone::kWhite);
  b.play(Move::at(1));
  EXPECT_EQ(b.at(1), Stone::kWhite);
}

TEST(Board, OccupiedPointIsIllegal) {
  Board b(9);
  b.play(Move::at(40));
  EXPECT_FALSE(b.is_legal(Move::at(40)));
  EXPECT_THROW(b.play(Move::at(40)), std::invalid_argument);
}

TEST(Board, TwoPassesEndGame) {
  Board b(9);
  b.play(Move::pass());
  EXPECT_FALSE(b.game_over());
  b.play(Move::pass());
  EXPECT_TRUE(b.game_over());
  EXPECT_FALSE(b.is_legal(Move::pass()));
  EXPECT_TRUE(b.legal_moves().empty());
}

TEST(Board, PassResetsOnStonePlay) {
  Board b(9);
  b.play(Move::pass());
  b.play(Move::at(0));
  b.play(Move::pass());
  EXPECT_FALSE(b.game_over());
}

TEST(Board, LibertiesCountedCorrectly) {
  Board b(9);
  b.play(Move::at(pt(b, 4, 4)));  // center: 4 liberties
  EXPECT_EQ(b.liberties(pt(b, 4, 4)), 4);
  Board c(9);
  c.play(Move::at(pt(c, 0, 0)));  // corner: 2 liberties
  EXPECT_EQ(c.liberties(pt(c, 0, 0)), 2);
}

TEST(Board, GroupLibertiesShared) {
  Board b(9);
  b.play(Move::at(pt(b, 4, 4)));  // black
  b.play(Move::at(pt(b, 0, 0)));  // white elsewhere
  b.play(Move::at(pt(b, 4, 5)));  // black: group of two
  EXPECT_EQ(b.liberties(pt(b, 4, 4)), 6);
  EXPECT_EQ(b.liberties(pt(b, 4, 5)), 6);
}

TEST(Board, SingleStoneCapture) {
  Board b(9);
  // White stone at (0,0) captured by black at (0,1) and (1,0).
  b.play(Move::at(pt(b, 4, 4)));  // B filler
  b.play(Move::at(pt(b, 0, 0)));  // W corner
  b.play(Move::at(pt(b, 0, 1)));  // B
  b.play(Move::at(pt(b, 5, 5)));  // W filler
  b.play(Move::at(pt(b, 1, 0)));  // B captures
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kEmpty);
}

TEST(Board, GroupCapture) {
  Board b(9);
  // Build a white group of two at (0,0) (0,1) and capture it.
  b.play(Move::at(pt(b, 4, 4)));  // B
  b.play(Move::at(pt(b, 0, 0)));  // W
  b.play(Move::at(pt(b, 1, 0)));  // B
  b.play(Move::at(pt(b, 0, 1)));  // W group of 2
  b.play(Move::at(pt(b, 1, 1)));  // B
  b.play(Move::at(pt(b, 5, 5)));  // W filler
  b.play(Move::at(pt(b, 0, 2)));  // B captures both
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kEmpty);
  EXPECT_EQ(b.at(pt(b, 0, 1)), Stone::kEmpty);
}

TEST(Board, SuicideIsIllegal) {
  Board b(9);
  // Black surrounds (0,0); white playing there would be suicide.
  b.play(Move::at(pt(b, 0, 1)));  // B
  b.play(Move::at(pt(b, 5, 5)));  // W
  b.play(Move::at(pt(b, 1, 0)));  // B
  EXPECT_EQ(b.to_play(), Stone::kWhite);
  EXPECT_FALSE(b.is_legal(Move::at(pt(b, 0, 0))));
}

TEST(Board, CapturingIntoZeroLibertyPointIsLegal) {
  // Black plays (0,0) — a point with no liberties of its own — but the move
  // captures the adjacent white group, so it is legal (not suicide).
  Board b(5);
  b.play(Move::at(pt(b, 0, 2)));  // B
  b.play(Move::at(pt(b, 0, 1)));  // W
  b.play(Move::at(pt(b, 2, 0)));  // B
  b.play(Move::at(pt(b, 1, 0)));  // W
  b.play(Move::at(pt(b, 2, 1)));  // B
  b.play(Move::at(pt(b, 1, 1)));  // W group {(0,1),(1,0),(1,1)}
  b.play(Move::at(pt(b, 1, 2)));  // B — white group's last liberty is (0,0)
  b.play(Move::pass());           // W
  EXPECT_EQ(b.to_play(), Stone::kBlack);
  ASSERT_TRUE(b.is_legal(Move::at(pt(b, 0, 0))));
  b.play(Move::at(pt(b, 0, 0)));
  EXPECT_EQ(b.at(pt(b, 0, 1)), Stone::kEmpty);  // white captured
  EXPECT_EQ(b.at(pt(b, 1, 0)), Stone::kEmpty);
  EXPECT_EQ(b.at(pt(b, 1, 1)), Stone::kEmpty);
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kBlack);
  EXPECT_GT(b.liberties(pt(b, 0, 0)), 0);
}

TEST(Board, SimpleKoForbidden) {
  Board b(9);
  // Classic ko shape around (1,1)/(1,2).
  // B: (0,1), (1,0), (2,1); W: (0,2), (1,3), (2,2); B plays (1,2), W captures
  // at (1,1), then B immediate recapture at (1,2) must be illegal (superko).
  b.play(Move::at(pt(b, 0, 1)));  // B
  b.play(Move::at(pt(b, 0, 2)));  // W
  b.play(Move::at(pt(b, 1, 0)));  // B
  b.play(Move::at(pt(b, 1, 3)));  // W
  b.play(Move::at(pt(b, 2, 1)));  // B
  b.play(Move::at(pt(b, 2, 2)));  // W
  b.play(Move::at(pt(b, 1, 2)));  // B stone in the ko
  b.play(Move::at(pt(b, 1, 1)));  // W captures the B stone (ko)
  EXPECT_EQ(b.at(pt(b, 1, 2)), Stone::kEmpty);
  EXPECT_FALSE(b.is_legal(Move::at(pt(b, 1, 2))))
      << "immediate ko recapture must violate positional superko";
}

TEST(Board, ScoringEmptyBoardIsKomi) {
  Board b(9, 5.5f);
  EXPECT_FLOAT_EQ(b.tromp_taylor_score(), -5.5f);
  EXPECT_EQ(b.winner(), Stone::kWhite);
}

TEST(Board, ScoringCountsTerritory) {
  Board b(5, 0.5f);
  // Black wall on column 2 splits the board; black owns left side if white
  // has no stones there.
  for (std::int64_t r = 0; r < 5; ++r) {
    b.play(Move::at(pt(b, r, 2)));         // B wall
    if (r < 4) b.play(Move::at(pt(b, r, 4)));  // W column
  }
  // Black: 5 stones + 10 territory (cols 0-1). White: 4 stones + col-3 region
  // touches both colors -> neutral.
  const float score = b.tromp_taylor_score();
  EXPECT_FLOAT_EQ(score, 5.0f + 10.0f - 4.0f - 0.5f);
  EXPECT_EQ(b.winner(), Stone::kBlack);
}

TEST(Board, LegalMovesShrinkAsBoardFills) {
  Board b(5);
  const auto before = b.legal_moves().size();
  b.play(Move::at(0));
  EXPECT_LT(b.legal_moves().size(), before);
}

TEST(Board, LegalMovesAlwaysIncludePass) {
  Board b(5);
  const auto moves = b.legal_moves();
  bool has_pass = false;
  for (const auto& m : moves)
    if (m.is_pass()) has_pass = true;
  EXPECT_TRUE(has_pass);
}

TEST(Board, PositionHashChangesWithStones) {
  Board b(9);
  const auto h0 = b.position_hash();
  b.play(Move::at(3));
  EXPECT_NE(b.position_hash(), h0);
}

TEST(Board, HashIdenticalForIdenticalPositions) {
  Board a(9), b(9);
  a.play(Move::at(1));
  a.play(Move::at(2));
  b.play(Move::at(1));
  b.play(Move::at(2));
  EXPECT_EQ(a.position_hash(), b.position_hash());
}

TEST(Board, CaptureRestoresHashOfEmptyPoint) {
  // After capture, position hash reflects the removed stone.
  Board b(9);
  b.play(Move::at(pt(b, 4, 4)));
  b.play(Move::at(pt(b, 0, 0)));
  b.play(Move::at(pt(b, 0, 1)));
  b.play(Move::at(pt(b, 5, 5)));
  Board reference = b;  // before capture
  b.play(Move::at(pt(b, 1, 0)));  // captures W (0,0)
  EXPECT_NE(b.position_hash(), reference.position_hash());
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kEmpty);
}

TEST(Board, ToStringRendersStones) {
  Board b(5);
  b.play(Move::at(0));
  const std::string s = b.to_string();
  EXPECT_EQ(s[0], 'X');
  EXPECT_NE(s.find("white to play"), std::string::npos);
}

// Property: random legal playouts terminate and never throw.
class RandomPlayout : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPlayout, CompletesWithoutRuleViolations) {
  tensor::Rng rng(GetParam());
  Board b(5, 0.5f);
  std::int64_t moves = 0;
  while (!b.game_over() && moves < 200) {
    const auto legal = b.legal_moves();
    ASSERT_FALSE(legal.empty());
    const Move m = legal[static_cast<std::size_t>(rng.randint(legal.size()))];
    ASSERT_TRUE(b.is_legal(m));
    b.play(m);
    ++moves;
  }
  // Scoring always works on any reachable position.
  (void)b.tromp_taylor_score();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlayout, ::testing::Values(1, 2, 3, 4, 5));

// ---- equivalence with the copy-based rules (tests/reference/go_ref) ---------

std::vector<std::int64_t> points_of(const std::vector<Move>& moves) {
  std::vector<std::int64_t> out;
  for (const Move& m : moves) out.push_back(m.point);
  return out;
}

// What the corpus exercised, so a corpus that never captures or never meets
// an illegal empty point cannot pass silently.
struct Coverage {
  std::int64_t positions = 0;
  std::int64_t captures = 0;        // moves that removed stones
  std::int64_t illegal_empty = 0;   // (position, empty point) pairs ruled out
  std::int64_t superko_empty = 0;   // ... of which the point had an empty neighbour
};

std::int64_t stone_count(const Board& b) {
  std::int64_t n = 0;
  for (std::int64_t p = 0; p < b.num_points(); ++p) n += b.at(p) != Stone::kEmpty;
  return n;
}

// Every query the rules answer, compared position by position.
void expect_same_rules(const Board& b, const RefBoard& ref, Coverage& cov) {
  ++cov.positions;
  ASSERT_EQ(b.position_hash(), ref.position_hash()) << b.to_string();
  ASSERT_EQ(points_of(b.legal_moves()), points_of(ref.legal_moves())) << b.to_string();
  ASSERT_EQ(b.is_legal(Move::pass()), ref.is_legal(Move::pass()));
  for (std::int64_t p = 0; p < b.num_points(); ++p) {
    ASSERT_EQ(b.at(p), ref.at(p)) << "point " << p;
    ASSERT_EQ(b.is_legal(Move::at(p)), ref.is_legal(Move::at(p)))
        << "point " << p << "\n" << b.to_string();
    if (b.at(p) != Stone::kEmpty) {
      ASSERT_EQ(b.liberties(p), ref.liberties(p)) << "point " << p << "\n" << b.to_string();
    } else if (!b.is_legal(Move::at(p)) && !b.game_over()) {
      ++cov.illegal_empty;
      for (std::int64_t q : b.neighbors(p))
        if (b.at(q) == Stone::kEmpty) {
          ++cov.superko_empty;  // a stone with an empty neighbour is never suicide
          break;
        }
    }
  }
  ASSERT_EQ(std::bit_cast<std::uint32_t>(b.tromp_taylor_score()),
            std::bit_cast<std::uint32_t>(ref.tromp_taylor_score()));
}

void play_both(Board& b, RefBoard& ref, Move m, Coverage& cov) {
  const std::int64_t before = stone_count(b);
  b.play(m);
  ref.play(m);
  if (stone_count(b) < before + (m.is_pass() ? 0 : 1)) ++cov.captures;
}

// Uniform random playouts that pass only when nothing else is legal, so games
// run long and fill the board: captures, kos and superko repeats all occur.
Coverage random_corpus(std::int64_t size, std::uint64_t first_seed, int games, int max_moves) {
  Coverage cov;
  for (int g = 0; g < games; ++g) {
    tensor::Rng rng(first_seed + static_cast<std::uint64_t>(g));
    Board b(size, 0.5f);
    RefBoard ref(size, 0.5f);
    for (int move = 0; move < max_moves && !b.game_over(); ++move) {
      expect_same_rules(b, ref, cov);
      if (::testing::Test::HasFatalFailure()) return cov;
      std::vector<Move> legal = b.legal_moves();
      if (legal.size() > 1) legal.pop_back();  // drop pass while a stone is legal
      play_both(b, ref, legal[static_cast<std::size_t>(rng.randint(legal.size()))], cov);
    }
    expect_same_rules(b, ref, cov);
  }
  return cov;
}

TEST(GoRulesEquivalence, RandomPlayouts5x5MatchCopyBasedRules) {
  const Coverage cov = random_corpus(5, 100, 24, 160);
  EXPECT_GT(cov.captures, 100);
  EXPECT_GT(cov.illegal_empty, 100);
  EXPECT_GT(cov.superko_empty, 0);
}

TEST(GoRulesEquivalence, RandomPlayouts9x9MatchCopyBasedRules) {
  const Coverage cov = random_corpus(9, 900, 4, 260);
  EXPECT_GT(cov.captures, 50);
  EXPECT_GT(cov.illegal_empty, 50);
}

// The reference games MiniGoWorkload::prepare_data builds: the heuristic
// teacher's self-play at the reference config, replayed on both boards.
TEST(GoRulesEquivalence, TeacherSelfPlayGamesMatchCopyBasedRules) {
  const models::MiniGoWorkload::Config cfg;
  models::Mcts::Config teacher = cfg.mcts;
  teacher.simulations = cfg.reference_teacher_sims;
  teacher.dirichlet_weight = 0.1f;
  tensor::Rng rng(0xD0D0CAFEULL);
  Coverage cov;
  for (std::int64_t g = 0; g < cfg.reference_games; ++g) {
    const models::SelfPlayResult game =
        models::self_play_game(teacher, models::heuristic_evaluator(), cfg.board_size, cfg.komi,
                               cfg.max_game_moves, /*temperature_moves=*/4, rng);
    Board b(cfg.board_size, cfg.komi);
    RefBoard ref(cfg.board_size, cfg.komi);
    for (const Move& m : game.record.moves) {
      expect_same_rules(b, ref, cov);
      ASSERT_FALSE(HasFatalFailure());
      play_both(b, ref, m, cov);
    }
    expect_same_rules(b, ref, cov);
    EXPECT_EQ(b.winner(), game.record.winner);
  }
  EXPECT_GT(cov.positions, 6 * 20);
}

// ---- capture, suicide and superko edge cases --------------------------------

// Plays alternating moves given as (row, col); {-1, -1} is a pass.
void play_all(Board& b, RefBoard& ref, std::initializer_list<std::pair<int, int>> moves) {
  for (const auto& [r, c] : moves) {
    const Move m = r < 0 ? Move::pass() : Move::at(pt(b, r, c));
    b.play(m);
    ref.play(m);
  }
}

constexpr std::pair<int, int> kPass{-1, -1};

TEST(GoRulesEdge, GroupTouchingTheMoveTwiceIsCapturedOnce) {
  // White {(0,1), (1,0), (1,1)} touches (0,0) through (0,1) and (1,0); its
  // only liberty is (0,0). Black there captures all three stones once.
  Board b(5);
  RefBoard ref(5);
  play_all(b, ref, {{0, 2}, {0, 1}, {2, 0}, {1, 0}, {2, 1}, {1, 1}, {1, 2}, kPass, {0, 0}});
  EXPECT_EQ(b.position_hash(), ref.position_hash());
  // The same black stones reached without any capture hash the same: a
  // stone XORed out twice would leave its key in the hash.
  Board direct(5);
  for (const auto& [r, c] : {std::pair{0, 2}, {2, 0}, {2, 1}, {1, 2}, {0, 0}}) {
    direct.play(Move::at(pt(direct, r, c)));
    direct.play(Move::pass());
  }
  EXPECT_EQ(b.position_hash(), direct.position_hash());
}

TEST(GoRulesEdge, GroupReachedTwiceKeepsItsFarLiberty) {
  // White {(1,1), (1,2), (2,1)} touches (2,2) from above and from the left.
  // Its one liberty besides (2,2) is (0,1), reached through (1,1): the scan
  // from (1,2) finds it, and the scan from (2,1) must too, so black at
  // (2,2) captures nothing.
  Board b(5);
  RefBoard ref(5);
  play_all(b, ref, {{0, 2}, {1, 2}, {1, 3}, {1, 1}, {3, 1}, {2, 1}, {2, 0}, kPass});
  ASSERT_EQ(b.liberties(pt(b, 1, 1)), 3);  // (0,1), (1,0) and (2,2)
  play_all(b, ref, {{2, 2}});
  for (const auto& [r, c] : {std::pair{1, 1}, {1, 2}, {2, 1}})
    EXPECT_EQ(b.at(pt(b, r, c)), Stone::kWhite) << r << "," << c;
  EXPECT_EQ(b.liberties(pt(b, 2, 1)), 2);
  EXPECT_EQ(b.position_hash(), ref.position_hash());
}

TEST(GoRulesEdge, SuicideShapeThatCapturesIsLegal) {
  // Black at the centre (2,2) of a 5x5 board touches four white stones and
  // no empty point, but white (2,3) has (2,2) as its last liberty.
  Board b(5);
  RefBoard ref(5);
  play_all(b, ref, {{1, 3}, {1, 2}, {3, 3}, {3, 2}, {2, 4}, {2, 1}, kPass, {2, 3}});
  ASSERT_EQ(b.to_play(), Stone::kBlack);
  ASSERT_TRUE(b.is_legal(Move::at(pt(b, 2, 2))));
  ASSERT_TRUE(ref.is_legal(Move::at(pt(b, 2, 2))));
  play_all(b, ref, {{2, 2}});
  EXPECT_EQ(b.at(pt(b, 2, 3)), Stone::kEmpty);
  EXPECT_EQ(b.at(pt(b, 1, 2)), Stone::kWhite);  // the other three survive
  EXPECT_EQ(b.at(pt(b, 2, 1)), Stone::kWhite);
  EXPECT_EQ(b.at(pt(b, 3, 2)), Stone::kWhite);
  EXPECT_EQ(b.liberties(pt(b, 2, 2)), 1);
  EXPECT_EQ(b.position_hash(), ref.position_hash());
}

TEST(GoRulesEdge, FillingOwnGroupsLastLibertyIsIllegal) {
  // Black {(0,1), (1,0), (1,1)} has (0,0) as its only liberty; white around
  // it has liberties to spare, so black at (0,0) captures nothing.
  Board b(5);
  RefBoard ref(5);
  play_all(b, ref, {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 1}, {2, 1}, kPass, {2, 0}});
  ASSERT_EQ(b.to_play(), Stone::kBlack);
  ASSERT_EQ(b.liberties(pt(b, 1, 1)), 1);
  EXPECT_FALSE(b.is_legal(Move::at(pt(b, 0, 0))));
  EXPECT_FALSE(ref.is_legal(Move::at(pt(b, 0, 0))));
  EXPECT_THROW(b.play(Move::at(pt(b, 0, 0))), std::invalid_argument);
  // With a second liberty the same fill is a legal self-atari.
  Board open(5);
  RefBoard open_ref(5);
  play_all(open, open_ref, {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 1}, {2, 1}});
  ASSERT_EQ(open.at(pt(open, 2, 0)), Stone::kEmpty);
  EXPECT_TRUE(open.is_legal(Move::at(pt(open, 0, 0))));
  EXPECT_TRUE(open_ref.is_legal(Move::at(pt(open, 0, 0))));
}

TEST(GoRulesEdge, Snapback) {
  // White {(0,2), (1,0), (1,1), (1,2)} has liberties (0,0) and (0,1), and
  // black walls it in. Black throws in at (0,0), white takes that stone at
  // (0,1), and black retakes at (0,0): five stones, not a ko.
  Board b(5);
  RefBoard ref(5);
  play_all(b, ref,
           {{0, 3}, {0, 2}, {1, 3}, {1, 0}, {2, 0}, {1, 1}, {2, 1}, {1, 2}, {2, 2}, kPass});
  play_all(b, ref, {{0, 0}});
  EXPECT_EQ(b.liberties(pt(b, 0, 0)), 1);  // the throw-in is in atari
  play_all(b, ref, {{0, 1}});
  EXPECT_EQ(b.at(pt(b, 0, 0)), Stone::kEmpty);
  EXPECT_EQ(b.liberties(pt(b, 0, 1)), 1);  // white's whole group now is
  ASSERT_TRUE(b.is_legal(Move::at(pt(b, 0, 0))));
  ASSERT_TRUE(ref.is_legal(Move::at(pt(b, 0, 0))));
  play_all(b, ref, {{0, 0}});
  for (const auto& [r, c] : {std::pair{0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}})
    EXPECT_EQ(b.at(pt(b, r, c)), Stone::kEmpty) << r << "," << c;
  EXPECT_EQ(b.position_hash(), ref.position_hash());
}

TEST(GoRulesEdge, MultiStoneCaptureRecreatingAnOlderPositionIsSuperko) {
  // Position X: black (0,1) in atari between white (0,0) and (1,1); black
  // (1,2), (1,3), (0,4) wall off the top edge to the right.
  Board b(5);
  RefBoard ref(5);
  play_all(b, ref, {{1, 2}, {0, 0}, {1, 3}, {1, 1}, {0, 4}, kPass, {0, 1}});
  const std::uint64_t x = b.position_hash();
  // White takes (0,1) from (0,2), black passes, white extends to (0,3). The
  // pair (0,2)-(0,3) has (0,1) as its only liberty, so black at (0,1) would
  // capture both stones and recreate X, four moves back.
  play_all(b, ref, {{0, 2}, kPass, {0, 3}});
  EXPECT_FALSE(b.is_legal(Move::at(pt(b, 0, 1))));
  EXPECT_FALSE(ref.is_legal(Move::at(pt(b, 0, 1))));
  const auto moves = points_of(b.legal_moves());
  EXPECT_EQ(std::count(moves.begin(), moves.end(), pt(b, 0, 1)), 0);
  EXPECT_EQ(points_of(b.legal_moves()), points_of(ref.legal_moves()));
  // The same stones set up with no history: there the move is a legal
  // two-stone capture whose result hashes to X.
  Board fresh(5);
  RefBoard fresh_ref(5);
  play_all(fresh, fresh_ref, {{1, 2}, {0, 0}, {1, 3}, {1, 1}, {0, 4}, {0, 2}, kPass, {0, 3}});
  ASSERT_TRUE(fresh.is_legal(Move::at(pt(fresh, 0, 1))));
  play_all(fresh, fresh_ref, {{0, 1}});
  EXPECT_EQ(fresh.at(pt(fresh, 0, 2)), Stone::kEmpty);
  EXPECT_EQ(fresh.at(pt(fresh, 0, 3)), Stone::kEmpty);
  EXPECT_EQ(fresh.position_hash(), x);
  EXPECT_EQ(fresh_ref.position_hash(), x);
}

}  // namespace
}  // namespace mlperf::go
