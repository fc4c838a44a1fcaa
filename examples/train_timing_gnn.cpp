/// \file train_timing_gnn.cpp
/// The full training pipeline as a user-facing tool: build the dataset
/// (subset or full suite), train the timing-engine-inspired GNN with the
/// paper's joint loss (Eq. 7), report per-design R², and save the trained
/// parameters for later inference (see pre_routing_eval).
///
///   ./train_timing_gnn [--designs=usb,zipdiv,spm] [--scale=0.05]
///                      [--epochs=160] [--hidden=16] [--save=model.bin]
///                      [--load=model.bin] [--trace] [--export-dir=<dir>]
///                      [--checkpoint=ckpt.bin] [--checkpoint-every=N]
///                      [--resume] [--telemetry=train.jsonl]
///                      [--stop-after=N]
///
/// With --checkpoint the trainer atomically writes a checksummed checkpoint
/// (params + Adam moments + epoch) every N epochs; --resume restarts a killed
/// run from it and reproduces the uninterrupted final loss bit-identically.
///
/// SIGINT/SIGTERM request a *graceful* shutdown: training stops at the next
/// epoch boundary, writes a final checkpoint (when --checkpoint is set) and
/// exits cleanly — a second signal falls back to the default handler and
/// kills the run (the checkpoint from the last boundary still resumes).
/// --stop-after=N is the deterministic test stand-in for that signal.

#include <atomic>
#include <csignal>
#include <cstdio>

#include "core/trainer.hpp"
#include "data/graph_io.hpp"
#include "liberty/library_builder.hpp"
#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace {

std::atomic<bool> g_stop_requested{false};

extern "C" void request_graceful_stop(int sig) {
  g_stop_requested.store(true, std::memory_order_relaxed);
  // A second signal should actually kill the process (e.g. a hung epoch).
  std::signal(sig, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tg;
  const CliOptions opts(argc, argv);
  opts.require_known({"designs", "scale", "epochs", "hidden", "save", "load",
                      "trace", "export-dir", "verbose", "lr", "lr-final",
                      "net-aux", "cell-aux", "checkpoint", "checkpoint-every",
                      "resume", "telemetry", "stop-after"});
  std::signal(SIGINT, request_graceful_stop);
  std::signal(SIGTERM, request_graceful_stop);
  set_log_level(opts.get_bool("verbose", true) ? LogLevel::kInfo
                                               : LogLevel::kWarn);

  // ---- dataset ----------------------------------------------------------
  std::vector<std::string> only;
  if (opts.has("designs")) {
    for (const std::string& s : split(opts.get("designs", ""), ',')) {
      if (!s.empty()) only.push_back(s);
    }
  } else {
    only = {"usb", "zipdiv", "usb_cdc_core", "spm", "xtea"};
  }
  const Library library = build_library();
  data::DatasetOptions data_opts;
  data_opts.scale = opts.get_double("scale", 1.0 / 20);
  const data::SuiteDataset dataset =
      build_suite_dataset(library, data_opts, only);
  std::printf("dataset: %zu designs (%zu train / %zu test)\n",
              dataset.graphs.size(), dataset.train_ids.size(),
              dataset.test_ids.size());

  // Optional dataset export (the paper's open-data release, our format).
  if (opts.has("export-dir")) {
    const std::string dir = opts.get("export-dir", "dataset");
    for (const auto& g : dataset.graphs) {
      data::save_graph(g, dir + "/" + g.name + ".tgdg");
    }
    std::printf("exported %zu graphs to %s/*.tgdg\n", dataset.graphs.size(),
                dir.c_str());
  }

  // ---- model ------------------------------------------------------------
  core::TimingGnnConfig cfg;
  const int hidden = static_cast<int>(opts.get_int("hidden", 16));
  cfg.net.hidden = cfg.net.mlp_hidden = hidden;
  cfg.prop.hidden = cfg.prop.mlp_hidden = cfg.prop.lut.mlp_hidden = hidden;
  cfg.net.mlp_layers = cfg.prop.mlp_layers = 2;
  cfg.use_net_aux = opts.get_bool("net-aux", true);
  cfg.use_cell_aux = opts.get_bool("cell-aux", true);

  core::TrainOptions train;
  train.epochs = static_cast<int>(opts.get_int("epochs", 160));
  train.lr = static_cast<float>(opts.get_double("lr", 2e-3));
  train.lr_final = static_cast<float>(opts.get_double("lr-final", 1e-4));
  train.verbose = opts.get_bool("verbose", true);
  train.checkpoint_path = opts.get("checkpoint", "");
  train.checkpoint_every =
      static_cast<int>(opts.get_int("checkpoint-every", 1));
  // Per-epoch loss/grad-norm/LR/time/RSS as JSONL (DESIGN.md §9).
  train.telemetry_path = opts.get("telemetry", "");
  train.stop_requested = &g_stop_requested;
  train.stop_after_epochs = static_cast<int>(opts.get_int("stop-after", 0));

  core::TimingGnnTrainer trainer(cfg, train);
  std::printf("model: %lld trainable parameters\n",
              static_cast<long long>(trainer.model().num_parameters()));

  if (opts.has("trace")) {
    // Fig. 3 in executable form: per-level workload of the delay
    // propagation stage on the first design.
    const auto& g = dataset.graphs[0];
    const data::LevelCsr& csr = g.topo->csr();
    const int levels = g.num_levels();
    std::printf("\nlevelized propagation trace for %s (%d levels):\n",
                g.name.c_str(), levels);
    const auto count = [](const std::vector<int>& off, int l) {
      return off[static_cast<std::size_t>(l) + 1] -
             off[static_cast<std::size_t>(l)];
    };
    for (int l = 0; l < levels; l += std::max(1, levels / 12)) {
      std::printf("  level %3d: %5d pins, %5d net arcs in, %5d cell arcs in\n",
                  l, count(csr.node_off, l), count(csr.net_off, l),
                  count(csr.cell_off, l));
    }
    std::printf("\n");
  }

  // ---- train / load -------------------------------------------------------
  if (opts.has("load")) {
    nn::load_parameters(trainer.model(), opts.get("load", ""));
    std::printf("loaded parameters from %s\n", opts.get("load", "").c_str());
  } else {
    if (opts.get_bool("resume", false)) {
      TG_CHECK_MSG(!train.checkpoint_path.empty(),
                   "--resume requires --checkpoint=<path>");
      trainer.load_checkpoint(train.checkpoint_path);
      std::printf("resumed from %s at epoch %d/%d\n",
                  train.checkpoint_path.c_str(), trainer.completed_epochs(),
                  train.epochs);
    }
    WallTimer timer;
    double final_loss = 0.0;
    try {
      final_loss = trainer.fit(dataset);
    } catch (const CheckError& e) {
      std::fprintf(stderr, "train_timing_gnn: %s\n", e.what());
      return 1;
    }
    if (trainer.completed_epochs() < train.epochs) {
      std::printf("graceful stop at epoch %d/%d after %.1f s%s\n",
                  trainer.completed_epochs(), train.epochs, timer.seconds(),
                  train.checkpoint_path.empty()
                      ? ""
                      : " (checkpoint written; rerun with --resume)");
    }
    std::printf("trained %d epochs in %.1f s (final loss %.17g)\n",
                trainer.completed_epochs(), timer.seconds(), final_loss);
    if (trainer.non_finite_steps() > 0) {
      std::printf("non-finite-loss guard skipped %lld steps\n",
                  trainer.non_finite_steps());
    }
  }
  if (opts.has("save")) {
    nn::save_parameters(trainer.model(), opts.get("save", "model.bin"));
    std::printf("saved parameters to %s\n",
                opts.get("save", "model.bin").c_str());
  }

  // ---- evaluate -----------------------------------------------------------
  std::printf("\n%-14s %5s  %10s %10s %10s %10s\n", "design", "split",
              "R2(arr@EP)", "R2(slack)", "R2(netd)", "R2(celld)");
  for (const auto& g : dataset.graphs) {
    const core::DesignEval e = trainer.evaluate(g);
    std::printf("%-14s %5s  %10.4f %10.4f %10.4f %10.4f\n", g.name.c_str(),
                g.is_test ? "test" : "train", e.r2_arrival_endpoints,
                e.r2_slack_setup, e.r2_net_delay, e.r2_cell_delay);
  }
  return 0;
}
