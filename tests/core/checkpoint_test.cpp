/// Crash-safe checkpoint/resume: bit-identical resume after a fault-killed
/// run and after a graceful stop (for each of the three trainers), a sweep
/// over every injected failure point during a save, the non-finite-loss
/// guard, and corruption fuzzing of the checkpoint format.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <type_traits>

#include "core/test_fixture.hpp"
#include "core/trainer.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace tg::core {
namespace {

TimingGnnConfig tiny_config() {
  TimingGnnConfig cfg;
  cfg.net.hidden = 8;
  cfg.net.mlp_hidden = 8;
  cfg.net.mlp_layers = 1;
  cfg.net.num_layers = 2;
  cfg.prop.hidden = 8;
  cfg.prop.mlp_hidden = 8;
  cfg.prop.mlp_layers = 1;
  cfg.prop.lut.mlp_hidden = 8;
  cfg.prop.lut.mlp_layers = 1;
  return cfg;
}

TrainOptions quick_options(int epochs) {
  TrainOptions opt;
  opt.epochs = epochs;
  opt.lr = 3e-3f;
  opt.verbose = false;
  return opt;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class CheckpointTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::clear_io_fault();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    std::remove(path2_.c_str());
    std::remove((path2_ + ".tmp").c_str());
  }
  std::string path_ = ::testing::TempDir() + "/tg_ckpt_a.bin";
  std::string path2_ = ::testing::TempDir() + "/tg_ckpt_b.bin";
};

TEST_F(CheckpointTest, ResumeBitIdenticalAfterFaultKilledRun) {
  const auto& ds = testing::tiny_dataset();
  const int epochs = 6;

  // Reference: uninterrupted run.
  TrainOptions opt = quick_options(epochs);
  opt.checkpoint_path = path_;
  TimingGnnTrainer uninterrupted(tiny_config(), opt);
  const double reference_loss = uninterrupted.fit(ds);
  EXPECT_EQ(uninterrupted.completed_epochs(), epochs);

  // "Killed" run: the 4th checkpoint save (after epoch 4) dies at its
  // open_write, which unwinds fit() mid-run — the durable checkpoint on disk
  // is the one from epoch 3.
  opt.checkpoint_path = path2_;
  TimingGnnTrainer killed(tiny_config(), opt);
  fault::arm_io_fault("open_write", 4);
  EXPECT_THROW(killed.fit(ds), CheckError);
  fault::clear_io_fault();

  // Resume from the surviving checkpoint and finish the run.
  TimingGnnTrainer resumed(tiny_config(), opt);
  resumed.load_checkpoint(path2_);
  EXPECT_EQ(resumed.completed_epochs(), 3);
  const double resumed_loss = resumed.fit(ds);
  EXPECT_EQ(resumed.completed_epochs(), epochs);

  // Full-batch training is deterministic, the checkpoint holds the complete
  // optimizer state, and the lr schedule is a pure function of the epoch
  // index — so the final loss must match to the last bit.
  EXPECT_EQ(resumed_loss, reference_loss);
}

TEST_F(CheckpointTest, EveryFaultPointLeavesPreviousCheckpointLoadable) {
  const auto& ds = testing::tiny_dataset();
  TrainOptions opt = quick_options(2);
  TimingGnnTrainer trainer(tiny_config(), opt);
  trainer.fit(ds);
  trainer.save_checkpoint(path_);
  const std::vector<unsigned char> good = slurp(path_);

  // Kill the save at each distinct failure point; sweep "write" through
  // every buffered write op until one full save succeeds.
  for (const char* op : {"open_write", "fsync", "rename"}) {
    fault::arm_io_fault(op, 1);
    EXPECT_THROW(trainer.save_checkpoint(path_), CheckError) << "op " << op;
  }
  fault::clear_io_fault();
  EXPECT_EQ(slurp(path_), good);

  bool saved = false;
  for (long long nth = 1; !saved && nth < 100000; ++nth) {
    fault::arm_io_fault("write", nth);
    try {
      trainer.save_checkpoint(path_);
      saved = true;
    } catch (const CheckError&) {
      EXPECT_EQ(slurp(path_), good) << "after failed write op " << nth;
    }
  }
  fault::clear_io_fault();
  EXPECT_TRUE(saved);

  // Whatever happened above, the file on disk still round-trips.
  TimingGnnTrainer fresh(tiny_config(), opt);
  fresh.load_checkpoint(path_);
  EXPECT_EQ(fresh.completed_epochs(), trainer.completed_epochs());
}

TEST_F(CheckpointTest, NonFiniteLossGuardSkipsAndRecovers) {
  const auto& ds = testing::tiny_dataset();
  TrainOptions opt = quick_options(4);
  opt.lr = 1e30f;  // guarantees numeric blow-up after the first step
  opt.lr_final = 0.0f;
  TimingGnnTrainer trainer(tiny_config(), opt);
  const double loss = trainer.fit(ds);
  EXPECT_GT(trainer.non_finite_steps(), 0);
  // Epoch 1 takes the one good step; epochs 2-4 skip theirs, so the last
  // epoch trained nothing and has no loss to report.
  EXPECT_TRUE(std::isnan(loss));
  EXPECT_EQ(trainer.non_finite_steps(), 3);
  for (const auto& p : trainer.model().parameters()) {
    for (float v : p.data()) {
      ASSERT_TRUE(std::isfinite(v));
    }
  }
}

TEST_F(CheckpointTest, CorruptedCheckpointAlwaysRejected) {
  const auto& ds = testing::tiny_dataset();
  TrainOptions opt = quick_options(1);
  TimingGnnTrainer trainer(tiny_config(), opt);
  trainer.fit(ds);
  trainer.save_checkpoint(path_);
  const std::vector<unsigned char> full = slurp(path_);
  ASSERT_GT(full.size(), 16u);

  TimingGnnTrainer victim(tiny_config(), opt);
  for (int i = 0; i < 8; ++i) {
    const std::size_t n = full.size() * static_cast<std::size_t>(i) / 8;
    spit(path_, {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n)});
    EXPECT_THROW(victim.load_checkpoint(path_), CheckError)
        << "truncated to " << n;
  }
  for (std::size_t i = 0; i < full.size(); i += 64) {
    std::vector<unsigned char> bad = full;
    bad[i] ^= 0x5A;
    spit(path_, bad);
    EXPECT_THROW(victim.load_checkpoint(path_), CheckError)
        << "flip at byte " << i;
  }
}

TEST_F(CheckpointTest, WrongTrainerTagRejected) {
  const auto& ds = testing::tiny_dataset();
  TimingGnnTrainer trainer(tiny_config(), quick_options(1));
  trainer.fit(ds);
  trainer.save_checkpoint(path_);

  GcniiConfig gcfg;
  gcfg.num_layers = 2;
  gcfg.hidden = 8;
  GcniiTrainer other(gcfg, quick_options(1));
  EXPECT_THROW(other.load_checkpoint(path_), CheckError);
}

TEST_F(CheckpointTest, NetEmbedResumeRestoresRngStream) {
  const auto& ds = testing::tiny_dataset();
  NetEmbedConfig cfg;
  cfg.hidden = 8;
  cfg.mlp_hidden = 8;
  cfg.mlp_layers = 1;
  cfg.num_layers = 2;

  TrainOptions opt = quick_options(4);
  opt.checkpoint_path = path_;
  opt.checkpoint_every = 2;
  NetEmbedTrainer reference(cfg, opt);
  const double reference_loss = reference.fit(ds);

  // A second trainer resumed from the epoch-2 checkpoint must land on the
  // same final loss bit-for-bit (the trainer draws no random numbers after
  // construction, so the checkpoint carries no RNG state).
  opt.checkpoint_path = path2_;
  NetEmbedTrainer half(cfg, opt);
  fault::arm_io_fault("rename", 2);  // kill the epoch-4 checkpoint publish
  EXPECT_THROW(half.fit(ds), CheckError);
  fault::clear_io_fault();

  NetEmbedTrainer resumed(cfg, opt);
  resumed.load_checkpoint(path2_);
  EXPECT_EQ(resumed.completed_epochs(), 2);
  const double resumed_loss = resumed.fit(ds);
  EXPECT_EQ(resumed_loss, reference_loss);
}

// ---- the shared training loop, once per trainer ---------------------------

template <typename Trainer>
std::unique_ptr<Trainer> make_trainer(const TrainOptions& opt) {
  if constexpr (std::is_same_v<Trainer, TimingGnnTrainer>) {
    return std::make_unique<Trainer>(tiny_config(), opt);
  } else if constexpr (std::is_same_v<Trainer, NetEmbedTrainer>) {
    NetEmbedConfig cfg;
    cfg.hidden = 8;
    cfg.mlp_hidden = 8;
    cfg.mlp_layers = 1;
    cfg.num_layers = 2;
    return std::make_unique<Trainer>(cfg, opt);
  } else {
    GcniiConfig cfg;
    cfg.num_layers = 2;
    cfg.hidden = 8;
    return std::make_unique<Trainer>(cfg, opt);
  }
}

/// Every parameter's bytes, in registration order.
template <typename Trainer>
std::vector<unsigned char> param_bytes(Trainer& trainer) {
  std::vector<unsigned char> bytes;
  for (const nn::Tensor& p : trainer.model().parameters()) {
    const auto data = p.data();
    const std::size_t at = bytes.size();
    bytes.resize(at + data.size_bytes());
    std::memcpy(bytes.data() + at, data.data(), data.size_bytes());
  }
  return bytes;
}

template <typename Trainer>
class TrainLoopResumeTest : public CheckpointTest {
 protected:
  static constexpr int kEpochs = 6;

  /// The uninterrupted run every interrupted one must reproduce.
  void SetUp() override {
    auto reference = make_trainer<Trainer>(quick_options(kEpochs));
    reference_loss_ = reference->fit(testing::tiny_dataset());
    reference_params_ = param_bytes(*reference);
  }

  /// Resumes from path2_'s checkpoint, expecting `from` epochs done, and
  /// checks the finished run against the reference bit for bit.
  void resume_and_expect_reference(int from) {
    TrainOptions opt = quick_options(kEpochs);
    opt.checkpoint_path = path2_;
    auto resumed = make_trainer<Trainer>(opt);
    resumed->load_checkpoint(path2_);
    EXPECT_EQ(resumed->completed_epochs(), from);
    const double loss = resumed->fit(testing::tiny_dataset());
    EXPECT_EQ(resumed->completed_epochs(), kEpochs);
    EXPECT_EQ(loss, reference_loss_);
    EXPECT_EQ(param_bytes(*resumed), reference_params_);
  }

  double reference_loss_ = 0.0;
  std::vector<unsigned char> reference_params_;
};

using AllTrainers =
    ::testing::Types<TimingGnnTrainer, NetEmbedTrainer, GcniiTrainer>;
TYPED_TEST_SUITE(TrainLoopResumeTest, AllTrainers);

TYPED_TEST(TrainLoopResumeTest, KilledPublishResumesBitIdentical) {
  TrainOptions opt = quick_options(this->kEpochs);
  opt.checkpoint_path = this->path2_;
  auto killed = make_trainer<TypeParam>(opt);
  fault::arm_io_fault("rename", 4);  // kill the epoch-4 checkpoint publish
  EXPECT_THROW(killed->fit(testing::tiny_dataset()), CheckError);
  fault::clear_io_fault();
  this->resume_and_expect_reference(3);
}

TYPED_TEST(TrainLoopResumeTest, GracefulStopResumesBitIdentical) {
  TrainOptions opt = quick_options(this->kEpochs);
  opt.checkpoint_path = this->path2_;
  opt.stop_after_epochs = 2;
  auto stopped = make_trainer<TypeParam>(opt);
  stopped->fit(testing::tiny_dataset());
  EXPECT_EQ(stopped->completed_epochs(), 2);
  this->resume_and_expect_reference(2);
}

}  // namespace
}  // namespace tg::core
