#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "models/gnmt.h"
#include "models/maskrcnn.h"
#include "models/minigo.h"
#include "models/ncf.h"
#include "models/resnet.h"
#include "models/ssd.h"
#include "models/transformer.h"
#include "nn/functional.h"

namespace mlperf::models {
namespace {

using autograd::Variable;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

std::int64_t num_parameters(const nn::Module& m) {
  std::int64_t n = 0;
  for (const auto& p : m.parameters()) n += p.numel();
  return n;
}

// ---- ResNet ------------------------------------------------------------------

TEST(ResNet, ForwardShape) {
  Rng rng(1);
  ResNetMini::Config cfg;
  ResNetMini net(cfg, rng);
  Variable out = net.forward(Variable(Tensor({2, 3, 16, 16})));
  EXPECT_EQ(out.value().shape(), (Shape{2, 10}));
}

TEST(ResNet, V15FirstBlockHasIdentitySkipWhenShapesMatch) {
  // A block with in==out channels and stride 1 must have exactly the 6
  // conv/bn modules' parameters — no projection (the v1.5 rule).
  Rng rng(2);
  BottleneckBlock same(16, 8, 16, 1, rng);
  BottleneckBlock proj(8, 8, 16, 1, rng);
  EXPECT_LT(num_parameters(same), num_parameters(proj));
}

TEST(ResNet, StrideTwoHalvesResolutionViaThreeByThree) {
  Rng rng(3);
  BottleneckBlock block(8, 8, 16, 2, rng);
  Variable out = block.forward(Variable(Tensor({1, 8, 8, 8})));
  EXPECT_EQ(out.value().shape(), (Shape{1, 16, 4, 4}));
}

TEST(ResNet, GradientsFlowToAllParameters) {
  Rng rng(4);
  ResNetMini::Config cfg;
  cfg.stage_channels = {4};
  cfg.stage_blocks = {1};
  cfg.stem_channels = 4;
  ResNetMini net(cfg, rng);
  Variable out = net.forward(Variable(Tensor::randn({2, 3, 8, 8}, rng)));
  autograd::sum_all(out).backward();
  for (const auto& [name, p] : net.named_parameters())
    EXPECT_GT(p.grad().l2_norm_sq(), 0.0f) << name;
}

TEST(ResNetWorkload, SmokeRunsConvergeAndAreSeedDeterministic) {
  ResNetWorkload::Config cfg;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.num_classes = 4;
  cfg.dataset.train_size = 64;
  cfg.dataset.val_size = 32;
  cfg.dataset.noise = 0.2f;
  cfg.model.num_classes = 4;
  cfg.model.stage_channels = {6, 8};

  auto run_once = [&](std::uint64_t seed) {
    ResNetWorkload w(cfg);
    w.prepare_data();
    w.build_model(seed);
    std::vector<double> curve;
    for (int e = 0; e < 3; ++e) {
      w.train_epoch();
      curve.push_back(w.evaluate());
    }
    return curve;
  };
  const auto a = run_once(11);
  const auto b = run_once(11);
  const auto c = run_once(12);
  EXPECT_EQ(a, b);  // §2.2.3 protocol: seed fixes the trajectory
  EXPECT_NE(a, c);
  EXPECT_GT(a.back(), 0.3);  // learning is happening (chance = 0.25)
}

TEST(ResNetWorkload, QuantizedTrainingStillLearnsButDiffers) {
  ResNetWorkload::Config cfg;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.num_classes = 4;
  cfg.dataset.train_size = 64;
  cfg.dataset.val_size = 32;
  cfg.model.num_classes = 4;
  cfg.model.stage_channels = {6, 8};
  cfg.weight_format = numerics::Format::kBF16;
  ResNetWorkload w(cfg);
  w.prepare_data();
  w.build_model(5);
  for (int e = 0; e < 8; ++e) w.train_epoch();
  EXPECT_GT(w.evaluate(), 0.30);  // > chance (0.25) with margin
}

// The Figure-1 step quantizes the weights again after every update, so each
// step ends on a fixed point of quantize_tensor: the pre-quantization copy
// that the next step updates equals its quantized view, and no fp32 master
// survives past the first step.
class QuantizedWeightsTest : public ::testing::TestWithParam<numerics::Format> {};

TEST_P(QuantizedWeightsTest, EpochEndsOnQuantizationFixedPoint) {
  ResNetWorkload::Config cfg;
  cfg.dataset.height = 8;
  cfg.dataset.width = 8;
  cfg.dataset.num_classes = 4;
  cfg.dataset.train_size = 64;
  cfg.dataset.val_size = 32;
  cfg.model.num_classes = 4;
  cfg.model.stage_channels = {6, 8};
  cfg.weight_format = GetParam();
  ResNetWorkload w(cfg);
  w.prepare_data();
  w.build_model(5);
  w.train_epoch();
  for (const auto& [name, p] : w.model()->named_parameters()) {
    const Tensor q = numerics::quantize_tensor(p.value(), GetParam());
    EXPECT_EQ(std::memcmp(q.data(), p.value().data(),
                          static_cast<std::size_t>(q.numel()) * sizeof(float)),
              0)
        << name << " changed when quantized again";
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, QuantizedWeightsTest,
                         ::testing::Values(numerics::Format::kBF16, numerics::Format::kFP16,
                                           numerics::Format::kFP8E4M3,
                                           numerics::Format::kTernary));

// ---- SSD ---------------------------------------------------------------------

TEST(Ssd, AnchorGridCoversUnitSquare) {
  AnchorSet set = AnchorSet::make_grid(4, 4, {0.25f});
  EXPECT_EQ(set.size(), 16);
  for (const auto& a : set.anchors) {
    EXPECT_GT(a.cx(), 0.0f);
    EXPECT_LT(a.cx(), 1.0f);
    EXPECT_NEAR(a.w(), 0.25f, 1e-5);
  }
}

TEST(Ssd, BoxCodecRoundTrips) {
  BoxCodec codec;
  data::Box anchor{0.4f, 0.4f, 0.6f, 0.6f};
  data::Box gt{0.35f, 0.42f, 0.58f, 0.66f};
  const auto enc = codec.encode(gt, anchor);
  const data::Box dec = codec.decode(enc.data(), anchor);
  EXPECT_NEAR(dec.x1, gt.x1, 1e-4);
  EXPECT_NEAR(dec.y1, gt.y1, 1e-4);
  EXPECT_NEAR(dec.x2, gt.x2, 1e-4);
  EXPECT_NEAR(dec.y2, gt.y2, 1e-4);
}

TEST(Ssd, MatchingGuaranteesEveryGtGetsAnAnchor) {
  AnchorSet set = AnchorSet::make_grid(6, 6, {0.3f});
  std::vector<data::GtObject> gts(2);
  gts[0].box = data::Box{0.05f, 0.05f, 0.25f, 0.25f};
  gts[0].cls = 0;
  gts[1].box = data::Box{0.6f, 0.6f, 0.95f, 0.95f};
  gts[1].cls = 1;
  const MatchResult m = match_anchors(set, gts, 0.5f);
  std::set<std::int64_t> matched;
  for (std::int64_t g : m.gt_index)
    if (g >= 0) matched.insert(g);
  EXPECT_EQ(matched.size(), 2u);
}

TEST(Ssd, NmsSuppressesOverlaps) {
  std::vector<data::Box> boxes = {{0.1f, 0.1f, 0.5f, 0.5f},
                                  {0.12f, 0.12f, 0.52f, 0.52f},
                                  {0.7f, 0.7f, 0.9f, 0.9f}};
  std::vector<float> scores = {0.9f, 0.8f, 0.7f};
  const auto keep = nms(boxes, scores, 0.45f);
  ASSERT_EQ(keep.size(), 2u);
  EXPECT_EQ(keep[0], 0u);
  EXPECT_EQ(keep[1], 2u);
}

TEST(Ssd, NmsKeepsHighestScoreFirst) {
  std::vector<data::Box> boxes = {{0.1f, 0.1f, 0.5f, 0.5f}, {0.1f, 0.1f, 0.5f, 0.5f}};
  std::vector<float> scores = {0.3f, 0.9f};
  const auto keep = nms(boxes, scores, 0.5f);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], 1u);
}

TEST(Ssd, ModelOutputShapesMatchAnchors) {
  Rng rng(6);
  SsdModel::Config cfg;
  SsdModel model(cfg, rng);
  SsdModel::Output out = model.forward(Variable(Tensor({2, 3, 24, 24})));
  const std::int64_t a = model.anchors().size();
  EXPECT_EQ(out.class_logits.value().shape(), (Shape{2 * a, cfg.num_classes + 1}));
  EXPECT_EQ(out.box_offsets.value().shape(), (Shape{2 * a, 4}));
}

TEST(SsdWorkload, LearnsOnSmokeConfig) {
  SsdWorkload::Config cfg;
  cfg.dataset.train_size = 48;
  cfg.dataset.val_size = 24;
  SsdWorkload w(cfg);
  w.prepare_data();
  w.build_model(3);
  const double before = w.evaluate();
  for (int e = 0; e < 4; ++e) w.train_epoch();
  const double after = w.evaluate();
  EXPECT_GT(after, before + 0.05);
}

// ---- Mask R-CNN -----------------------------------------------------------------

TEST(MaskRcnn, RoiAlignExtractsAndBackprops) {
  Rng rng(7);
  Tensor feats = Tensor::randn({1, 2, 8, 8}, rng);
  Variable vf(feats, true);
  std::vector<data::Box> rois = {{0.0f, 0.0f, 0.5f, 0.5f}, {0.25f, 0.25f, 1.0f, 1.0f}};
  Variable out = roi_align(vf, rois, 4);
  EXPECT_EQ(out.value().shape(), (Shape{2, 2, 4, 4}));
  autograd::sum_all(out).backward();
  EXPECT_GT(vf.grad().l2_norm_sq(), 0.0f);
}

TEST(MaskRcnn, RoiAlignConstantFeatureGivesConstantOutput) {
  Tensor feats({1, 1, 6, 6}, 3.25f);
  Variable out = roi_align(Variable(feats), {{0.1f, 0.2f, 0.8f, 0.9f}}, 3);
  for (std::int64_t i = 0; i < out.value().numel(); ++i)
    EXPECT_NEAR(out.value()[i], 3.25f, 1e-5);
}

TEST(MaskRcnn, RoiAlignGradcheck) {
  Rng rng(8);
  Tensor feats = Tensor::randn({1, 1, 5, 5}, rng);
  std::vector<data::Box> rois = {{0.1f, 0.1f, 0.7f, 0.8f}};
  const float eps = 1e-2f;
  Variable vf(feats, true);
  autograd::sum_all(roi_align(vf, rois, 3)).backward();
  for (std::int64_t i = 0; i < feats.numel(); i += 3) {
    Tensor fp = feats, fm = feats;
    fp[i] += eps;
    fm[i] -= eps;
    const float lp = roi_align(Variable(fp), rois, 3).value().sum();
    const float lm = roi_align(Variable(fm), rois, 3).value().sum();
    EXPECT_NEAR(vf.grad()[i], (lp - lm) / (2 * eps), 5e-2) << i;
  }
}

TEST(MaskRcnn, RpnShapesMatchAnchors) {
  Rng rng(9);
  MaskRcnnModel::Config cfg;
  MaskRcnnModel model(cfg, rng);
  Variable feats = model.backbone(Variable(Tensor({1, 3, 24, 24})));
  auto rpn = model.rpn(feats);
  EXPECT_EQ(rpn.objectness.value().numel(), model.rpn_anchors().size());
  EXPECT_EQ(rpn.deltas.value().shape(), (Shape{model.rpn_anchors().size(), 4}));
}

TEST(MaskRcnn, ProposalsAreValidBoxes) {
  Rng rng(10);
  MaskRcnnModel::Config cfg;
  MaskRcnnModel model(cfg, rng);
  Variable feats = model.backbone(Variable(Tensor::randn({1, 3, 24, 24}, rng)));
  auto rpn = model.rpn(feats);
  const auto proposals = model.decode_proposals(rpn);
  EXPECT_LE(static_cast<std::int64_t>(proposals.size()), cfg.proposals_per_image);
  for (const auto& p : proposals) {
    EXPECT_GE(p.x1, 0.0f);
    EXPECT_LE(p.x2, 1.0f);
    EXPECT_GT(p.area(), 0.0f);
  }
}

TEST(MaskRcnnWorkload, LearnsOnSmokeConfig) {
  MaskRcnnWorkload::Config cfg;
  cfg.dataset.train_size = 24;
  cfg.dataset.val_size = 12;
  MaskRcnnWorkload w(cfg);
  w.prepare_data();
  w.build_model(4);
  for (int e = 0; e < 4; ++e) w.train_epoch();
  const auto detail = w.evaluate_detail();
  EXPECT_GT(detail.box_map, 0.05);
  EXPECT_GT(detail.mask_map, 0.05);
  EXPECT_DOUBLE_EQ(w.evaluate(), std::min(detail.box_map, detail.mask_map));
}

// ---- Transformer ------------------------------------------------------------------

TEST(Transformer, TeacherForcedShapes) {
  Rng rng(11);
  TransformerModel::Config cfg;
  cfg.vocab = 20;
  TransformerModel model(cfg, rng);
  std::vector<data::TokenSeq> src = {{3, 4, 5}, {6, 7, 8}};
  std::vector<data::TokenSeq> tgt_in = {{1, 9, 10}, {1, 11, 12}};
  Variable mem = model.encode(src);
  EXPECT_EQ(mem.value().shape(), (Shape{2, 3, cfg.model_dim}));
  Variable logits = model.decode(tgt_in, mem);
  EXPECT_EQ(logits.value().shape(), (Shape{6, 20}));
}

TEST(Transformer, RaggedBatchThrows) {
  Rng rng(12);
  TransformerModel model({}, rng);
  EXPECT_THROW(model.encode({{3, 4}, {3, 4, 5}}), std::invalid_argument);
}

TEST(Transformer, GreedyDecodeStopsAtEosAndTrims) {
  Rng rng(13);
  TransformerModel model({}, rng);
  const auto out = model.greedy_translate({{3, 4, 5, 6}}, 8);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LE(out[0].size(), 8u);
  for (auto tok : out[0]) {
    EXPECT_NE(tok, data::kEos);
    EXPECT_NE(tok, data::kBos);
    EXPECT_NE(tok, data::kPad);
  }
}

/// Mean teacher-forced cross-entropy of the workload's model over the
/// validation pairs. BLEU-4 reads 0 on these short sentences for many
/// epochs, so the held-out loss is what shows the model learning.
double transformer_val_loss(TransformerWorkload& w, const TransformerWorkload::Config& cfg) {
  auto* model = dynamic_cast<TransformerModel*>(w.training_state().model);
  if (model == nullptr) throw std::logic_error("not a TransformerModel");
  const data::SyntheticTranslationDataset ds(cfg.dataset);
  autograd::NoGradGuard no_grad;
  double total = 0.0;
  for (std::int64_t i = 0; i < ds.val_size(); ++i) {
    const data::SentencePair& p = ds.val(i);
    data::TokenSeq tgt_in = {data::kBos};
    tgt_in.insert(tgt_in.end(), p.target.begin(), p.target.end());
    std::vector<std::int64_t> targets = p.target;
    targets.push_back(data::kEos);
    const Variable logits = model->decode({tgt_in}, model->encode({p.source}));
    total += nn::cross_entropy(logits, targets).value()[0];
  }
  return total / static_cast<double>(ds.val_size());
}

TransformerWorkload::Config tiny_transformer_config() {
  TransformerWorkload::Config cfg;
  cfg.dataset.vocab = 12;
  cfg.dataset.min_len = 3;
  cfg.dataset.max_len = 5;
  cfg.dataset.train_size = 64;
  cfg.dataset.val_size = 16;
  return cfg;
}

TEST(Transformer, TrainingStepReducesLoss) {
  const TransformerWorkload::Config cfg = tiny_transformer_config();
  TransformerWorkload w(cfg);
  w.prepare_data();
  w.build_model(6);
  const double before = transformer_val_loss(w, cfg);
  for (int e = 0; e < 12; ++e) w.train_epoch();
  const double after = transformer_val_loss(w, cfg);
  // 3.95 -> 2.08 nats at seed 6; a uniform guess over the vocab scores ln(15).
  EXPECT_LT(after, 0.75 * before);
  EXPECT_LT(after, std::log(static_cast<double>(cfg.dataset.vocab + data::kFirstWord)));
}

// ---- GNMT ---------------------------------------------------------------------------

TEST(Gnmt, TeacherForcedShapes) {
  Rng rng(14);
  GnmtModel::Config cfg;
  cfg.vocab = 16;
  GnmtModel model(cfg, rng);
  std::vector<data::TokenSeq> src = {{3, 4, 5}, {6, 7, 8}};
  std::vector<data::TokenSeq> tgt_in = {{1, 9}, {1, 10}};
  Variable logits = model.forward_teacher(src, tgt_in);
  EXPECT_EQ(logits.value().shape(), (Shape{4, 16}));
}

TEST(Gnmt, GreedyDecodeProducesTokensInVocab) {
  Rng rng(15);
  GnmtModel::Config cfg;
  cfg.vocab = 16;
  GnmtModel model(cfg, rng);
  const auto out = model.greedy_translate({{3, 4, 5}}, 6);
  ASSERT_EQ(out.size(), 1u);
  for (auto tok : out[0]) {
    EXPECT_GE(tok, 0);
    EXPECT_LT(tok, 16);
  }
}

TEST(Gnmt, GradientsReachEncoderThroughAttention) {
  Rng rng(16);
  GnmtModel::Config cfg;
  cfg.vocab = 16;
  GnmtModel model(cfg, rng);
  std::vector<data::TokenSeq> src = {{3, 4, 5}};
  std::vector<data::TokenSeq> tgt_in = {{1, 6, 7}};
  Variable logits = model.forward_teacher(src, tgt_in);
  autograd::sum_all(logits).backward();
  for (const auto& [name, p] : model.named_parameters()) {
    if (name.rfind("encoder", 0) == 0) {
      EXPECT_GT(p.grad().l2_norm_sq(), 0.0f) << name;
    }
  }
}

// ---- NCF -----------------------------------------------------------------------------

TEST(Ncf, ScoreShape) {
  Rng rng(17);
  NeuMf::Config cfg;
  NeuMf model(cfg, rng);
  Variable s = model.forward({0, 1, 2}, {5, 6, 7});
  EXPECT_EQ(s.value().shape(), (Shape{3, 1}));
}

TEST(Ncf, MismatchedInputsThrow) {
  Rng rng(18);
  NeuMf model({}, rng);
  EXPECT_THROW(model.forward({0, 1}, {5}), std::invalid_argument);
}

TEST(NcfWorkload, SmokeConvergesAboveChance) {
  NcfWorkload::Config cfg;
  cfg.dataset.num_users = 32;
  cfg.dataset.num_items = 64;
  cfg.dataset.interactions_per_user = 10;
  cfg.dataset.num_eval_negatives = 30;
  NcfWorkload w(cfg);
  w.prepare_data();
  w.build_model(9);
  for (int e = 0; e < 10; ++e) w.train_epoch();
  // Chance HR@10 with 51 candidates ~ 0.196.
  EXPECT_GT(w.evaluate(), 0.3);
}

// ---- MiniGo -------------------------------------------------------------------------

TEST(Transformer, LabelSmoothingConfigTrains) {
  auto train = [](float smoothing) {
    TransformerWorkload::Config cfg = tiny_transformer_config();
    cfg.dataset.train_size = 48;
    cfg.label_smoothing = smoothing;
    TransformerWorkload w(cfg);
    w.prepare_data();
    w.build_model(3);
    const double before = transformer_val_loss(w, cfg);
    for (int e = 0; e < 4; ++e) w.train_epoch();
    const double after = transformer_val_loss(w, cfg);
    EXPECT_LT(after, 0.8 * before) << "smoothing " << smoothing;  // 3.52 -> 2.41 at 0.1
    return after;
  };
  // The smoothed loss trains a different model from the plain one.
  EXPECT_NE(train(0.1f), train(0.0f));
}

TEST(MiniGo, BoardPlanesPerspective) {
  go::Board b(9);
  b.play(go::Move::at(0));  // black
  Tensor planes_white_view = board_planes(b);  // white to play
  // Plane 0 = own (white) stones: empty. Plane 1 = opponent (black): point 0.
  EXPECT_EQ(planes_white_view[0], 0.0f);
  EXPECT_EQ(planes_white_view[81], 1.0f);
  EXPECT_EQ(planes_white_view[2 * 81], 0.0f);  // colour plane: white
}

TEST(MiniGo, NetOutputShapes) {
  Rng rng(19);
  PolicyValueNet net({}, rng);
  auto out = net.forward(Variable(Tensor({2, 3, 9, 9})));
  EXPECT_EQ(out.policy_logits.value().shape(), (Shape{2, 82}));
  EXPECT_EQ(out.value.value().shape(), (Shape{2, 1}));
  const std::vector<float>& v = out.value.value().vec();
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  EXPECT_GE(*lo, -1.0f);
  EXPECT_LE(*hi, 1.0f);
}

TEST(MiniGo, InferReturnsDistribution) {
  Rng rng(20);
  PolicyValueNet net({}, rng);
  go::Board b(9);
  auto [prior, value] = net.infer(b);
  EXPECT_EQ(prior.size(), 82u);
  double sum = 0.0;
  for (float p : prior) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-4);
  EXPECT_GE(value, -1.0f);
  EXPECT_LE(value, 1.0f);
}

TEST(MiniGo, InferMatchesRecordedForwardBitwise) {
  // infer() runs under a NoGradGuard; its outputs must equal those of the
  // same forward pass with the autograd graph recorded.
  Rng rng(22);
  PolicyValueNet net({}, rng);
  go::Board b(9);
  b.play(go::Move::at(40));
  b.play(go::Move::at(31));
  auto [prior, value] = net.infer(b);
  net.set_training(false);
  Tensor batch({1, 3, 9, 9});
  const Tensor planes = board_planes(b);
  std::copy(planes.vec().begin(), planes.vec().end(), batch.vec().begin());
  const auto out = net.forward(Variable(batch));
  ASSERT_TRUE(out.value.requires_grad()) << "reference forward must record a graph";
  const Tensor probs = out.policy_logits.value().softmax_last();
  ASSERT_EQ(static_cast<std::int64_t>(prior.size()), probs.numel());
  EXPECT_EQ(0, std::memcmp(prior.data(), probs.data(), prior.size() * sizeof(float)));
  const float want_value = out.value.value()[0];
  EXPECT_EQ(0, std::memcmp(&value, &want_value, sizeof(float)));
}

TEST(MiniGo, MctsVisitsSumToOneAndRespectLegality) {
  Rng rng(21);
  go::Board b(9);
  b.play(go::Move::at(40));
  Mcts mcts({.simulations = 32}, heuristic_evaluator());
  const auto pi = mcts.search(b, rng);
  double sum = 0.0;
  for (float p : pi) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-4);
  EXPECT_EQ(pi[40], 0.0f);  // occupied point cannot be visited
}

TEST(MiniGo, MctsPrefersCapturingValue) {
  // Teacher MCTS with the score-based heuristic should put most visits on
  // legal moves (sanity of the search plumbing, not strength).
  Rng rng(22);
  go::Board b(5, 0.5f);
  Mcts mcts({.simulations = 64}, heuristic_evaluator());
  const auto pi = mcts.search(b, rng);
  const go::Move best = Mcts::select_move(pi, b, 0.0f, rng);
  EXPECT_TRUE(b.is_legal(best));
}

TEST(MiniGo, SelfPlayProducesConsistentExamples) {
  Rng rng(23);
  SelfPlayResult game = self_play_game({.simulations = 8}, heuristic_evaluator(), 5, 0.5f,
                                       /*max_moves=*/20, /*temperature_moves=*/4, rng);
  EXPECT_FALSE(game.examples.empty());
  EXPECT_EQ(game.examples.size(), game.record.moves.size());
  for (const auto& ex : game.examples) {
    EXPECT_EQ(ex.planes.shape(), (Shape{3, 5, 5}));
    EXPECT_TRUE(ex.z == 1.0f || ex.z == -1.0f || ex.z == 0.0f);
    double sum = 0.0;
    for (float p : ex.pi) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(MiniGo, MctsSearchIsSeedDeterministic) {
  go::Board b(9);
  Mcts mcts({.simulations = 16}, heuristic_evaluator());
  Rng r1(5), r2(5), r3(6);
  const auto pi1 = mcts.search(b, r1);
  const auto pi2 = mcts.search(b, r2);
  EXPECT_EQ(pi1, pi2);
  const auto pi3 = mcts.search(b, r3);  // different seed -> different noise
  EXPECT_NE(pi1, pi3);
}

TEST(MiniGo, MctsMoreSimulationsConcentrateVisits) {
  // With more simulations, the visit distribution's max should not decrease
  // dramatically — the search converges on preferred moves. (Weak sanity
  // property; exact values depend on the evaluator.)
  go::Board b(5, 0.5f);
  Mcts small({.simulations = 8, .dirichlet_weight = 0.0f}, heuristic_evaluator());
  Mcts big({.simulations = 128, .dirichlet_weight = 0.0f}, heuristic_evaluator());
  Rng r1(9), r2(9);
  const auto pi_small = small.search(b, r1);
  const auto pi_big = big.search(b, r2);
  auto max_of = [](const std::vector<float>& v) {
    float m = 0.0f;
    for (float x : v) m = std::max(m, x);
    return m;
  };
  EXPECT_GT(max_of(pi_big), 0.0f);
  EXPECT_GT(max_of(pi_small), 0.0f);
}

TEST(MiniGo, SelectMoveTemperatureZeroIsArgmax) {
  go::Board b(9);
  std::vector<float> visits(82, 0.0f);
  visits[40] = 0.7f;
  visits[41] = 0.3f;
  Rng rng(10);
  const go::Move m = Mcts::select_move(visits, b, 0.0f, rng);
  EXPECT_EQ(m.point, 40);
}

TEST(MiniGo, SelectMoveSamplesWithTemperature) {
  go::Board b(9);
  std::vector<float> visits(82, 0.0f);
  visits[10] = 0.5f;
  visits[20] = 0.5f;
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 50; ++i) seen.insert(Mcts::select_move(visits, b, 1.0f, rng).point);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(MiniGoWorkload, MovePredictionImprovesOnSmoke) {
  MiniGoWorkload::Config cfg;
  cfg.mcts.simulations = 8;
  cfg.selfplay_games_per_epoch = 1;
  cfg.max_game_moves = 16;
  cfg.train_batches_per_epoch = 12;
  cfg.reference_games = 2;
  cfg.reference_teacher_sims = 16;
  cfg.reference_moves_per_game = 8;
  MiniGoWorkload w(cfg);
  w.prepare_data();
  EXPECT_EQ(w.reference_games().size(), 2u);
  w.build_model(10);
  const double before = w.evaluate();
  for (int e = 0; e < 6; ++e) w.train_epoch();
  EXPECT_GT(w.evaluate(), before);
}

TEST(MiniGoWorkload, RejectsConfigsWithNothingToPredict) {
  // evaluate() needs at least one reference move to score.
  for (std::int64_t MiniGoWorkload::Config::*field :
       {&MiniGoWorkload::Config::reference_games,
        &MiniGoWorkload::Config::reference_moves_per_game,
        &MiniGoWorkload::Config::max_game_moves}) {
    MiniGoWorkload::Config cfg;
    cfg.*field = 0;
    EXPECT_THROW(MiniGoWorkload{cfg}, std::invalid_argument);
  }
}

// The smoke-scale MiniGo of harness::make_reference_workload.
MiniGoWorkload::Config smoke_minigo_config() {
  MiniGoWorkload::Config cfg;
  cfg.mcts.simulations = 8;
  cfg.selfplay_games_per_epoch = 1;
  cfg.max_game_moves = 20;
  cfg.train_batches_per_epoch = 8;
  cfg.reference_games = 2;
  cfg.reference_teacher_sims = 16;
  cfg.reference_moves_per_game = 10;
  return cfg;
}

bool same_bits(const std::pair<std::vector<float>, float>& a,
               const std::pair<std::vector<float>, float>& b) {
  return a.first.size() == b.first.size() &&
         std::memcmp(a.first.data(), b.first.data(), a.first.size() * sizeof(float)) == 0 &&
         std::memcmp(&a.second, &b.second, sizeof(float)) == 0;
}

TEST(MiniGoWorkload, CachedInferIsBitwiseFreshInferOverASelfPlayGame) {
  const MiniGoWorkload::Config cfg = smoke_minigo_config();
  MiniGoWorkload w(cfg);
  w.build_model(5);
  std::int64_t calls = 0;
  const Mcts::Evaluator checked = [&](const go::Board& b) {
    ++calls;
    auto cached = w.infer(b);
    EXPECT_TRUE(same_bits(cached, w.net()->infer(b))) << "call " << calls;
    return cached;
  };
  Rng rng(5);
  self_play_game(cfg.mcts, checked, cfg.board_size, cfg.komi, cfg.max_game_moves,
                 cfg.temperature_moves, rng);
  const auto counters = w.counters();
  EXPECT_GT(counters.at("infer_cache_hits"), 0);
  EXPECT_EQ(counters.at("infer_cache_hits") + counters.at("infer_cache_misses"), calls);
}

TEST(MiniGoWorkload, InferCacheKeysOnTheSideToPlay) {
  MiniGoWorkload w(smoke_minigo_config());
  w.build_model(6);
  go::Board black(9);
  black.play(go::Move::at(40));
  black.play(go::Move::at(30));
  go::Board white = black;
  white.play(go::Move::pass());  // the same stones, white to play
  const auto a = w.infer(black);
  const auto b = w.infer(white);
  EXPECT_EQ(w.counters().at("infer_cache_misses"), 2);
  EXPECT_TRUE(same_bits(a, w.net()->infer(black)));
  EXPECT_TRUE(same_bits(b, w.net()->infer(white)));
  EXPECT_FALSE(same_bits(a, b));
  EXPECT_TRUE(same_bits(w.infer(black), a));
  EXPECT_TRUE(same_bits(w.infer(white), b));
  EXPECT_EQ(w.counters().at("infer_cache_hits"), 2);
}

TEST(MiniGoWorkload, InferCacheStartsOverWhenFull) {
  // The cache holds as many positions as self-play and evaluate() can meet
  // between two clears; one more clears it before it is stored.
  const MiniGoWorkload::Config cfg = smoke_minigo_config();
  const std::int64_t capacity = cfg.selfplay_games_per_epoch * cfg.max_game_moves *
                                    cfg.mcts.simulations +
                                cfg.reference_games * cfg.reference_moves_per_game;
  MiniGoWorkload w(cfg);
  w.build_model(8);
  std::vector<go::Board> boards;
  for (std::int64_t p = 0; p < 81 && std::ssize(boards) <= capacity; ++p)
    for (std::int64_t q = 0; q < 81 && std::ssize(boards) <= capacity; ++q) {
      if (q == p) continue;
      go::Board b(9);
      b.play(go::Move::at(p));
      b.play(go::Move::at(q));
      boards.push_back(b);
    }
  for (const go::Board& b : boards) EXPECT_TRUE(same_bits(w.infer(b), w.net()->infer(b)));
  EXPECT_EQ(w.counters().at("infer_cache_misses"), capacity + 1);
  // Only the last position survived the clear.
  EXPECT_TRUE(same_bits(w.infer(boards.back()), w.net()->infer(boards.back())));
  EXPECT_EQ(w.counters().at("infer_cache_hits"), 1);
  EXPECT_TRUE(same_bits(w.infer(boards.front()), w.net()->infer(boards.front())));
  EXPECT_EQ(w.counters().at("infer_cache_misses"), capacity + 2);
}

TEST(MiniGoWorkload, EvaluateAfterTrainingReadsNoStaleAnswers) {
  // Self-play fills the cache from the empty board on, then the gradient
  // steps change the weights: evaluate() must see the new net's answers.
  const MiniGoWorkload::Config cfg = smoke_minigo_config();
  MiniGoWorkload w(cfg);
  w.prepare_data();
  w.build_model(7);
  w.train_epoch();
  const double accuracy = w.evaluate();
  std::vector<std::int64_t> predicted, reference;
  for (const go::GameRecord& game : w.reference_games()) {
    go::Board board(game.board_size, game.komi);
    const std::size_t limit = std::min(game.moves.size(),
                                       static_cast<std::size_t>(cfg.reference_moves_per_game));
    for (std::size_t m = 0; m < limit; ++m) {
      const auto fresh = w.net()->infer(board);
      EXPECT_TRUE(same_bits(w.infer(board), fresh)) << "move " << m;
      std::int64_t best = -1;
      float best_p = -1.0f;
      for (const go::Move& mv : board.legal_moves()) {
        const std::int64_t idx = mv.is_pass() ? board.num_points() : mv.point;
        if (fresh.first[static_cast<std::size_t>(idx)] > best_p) {
          best_p = fresh.first[static_cast<std::size_t>(idx)];
          best = idx;
        }
      }
      predicted.push_back(best);
      reference.push_back(game.moves[m].is_pass() ? board.num_points() : game.moves[m].point);
      board.play(game.moves[m]);
    }
  }
  EXPECT_EQ(accuracy, metrics::top1_accuracy(predicted, reference));
}

TEST(MiniGoWorkload, FixedSeedNondeterminismFlag) {
  // With the flag off, same seed => same first evaluation after an epoch.
  MiniGoWorkload::Config cfg;
  cfg.mcts.simulations = 4;
  cfg.selfplay_games_per_epoch = 1;
  cfg.max_game_moves = 10;
  cfg.train_batches_per_epoch = 4;
  cfg.reference_games = 1;
  cfg.reference_teacher_sims = 8;
  cfg.reference_moves_per_game = 6;
  auto run = [&](bool nondet) {
    cfg.nondeterministic_scheduling = nondet;
    MiniGoWorkload w(cfg);
    w.prepare_data();
    w.build_model(77);
    w.train_epoch();
    return w.evaluate();
  };
  EXPECT_EQ(run(false), run(false));
}

}  // namespace
}  // namespace mlperf::models
