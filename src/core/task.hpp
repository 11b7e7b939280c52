#pragma once
// Training tasks for FaultTolerantTrainer (DESIGN.md §9): what a replica
// is, how one rank's batch is drawn and trained on, and how a model is
// scored. Gaussian-cluster classification (Fig. 3, Fig. 6) is the default
// task; span extraction is the Table 1 (SQuAD) proxy.

#include "src/compress/compressor.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"

#include <functional>

namespace compso::core {

/// Returns the compressor to use at iteration t (nullptr = no compression).
/// This is how the iteration-wise adaptive schedule plugs into training.
using CompressorProvider =
    std::function<const compress::GradientCompressor*(std::size_t t)>;

/// A provider that hands out `compressor` at every iteration (nullptr:
/// every iteration uncompressed).
CompressorProvider fixed_provider(
    const compress::GradientCompressor* compressor);

/// Cluster size, model shape and seed of a run.
struct TrainerConfig {
  std::size_t world = 4;
  std::size_t batch_per_rank = 16;
  std::size_t features = 24;
  std::size_t classes = 6;
  std::size_t hidden = 24;
  std::size_t depth = 2;
  float noise = 0.7F;
  std::uint64_t seed = 1234;
};

class TrainingTask {
 public:
  virtual ~TrainingTask() = default;
  /// One replica. Every rank builds its replica from an identically seeded
  /// `rng`, so all replicas start with the same weights.
  virtual nn::Model build(tensor::Rng& rng) const = 0;
  /// Draws one rank's batch of `batch` samples from `data` (ranks draw in
  /// rank order) and returns that rank's forward/loss/backward pass over
  /// `model`; the pass stores the batch loss in `loss`. Passes of
  /// different ranks touch disjoint state and may run concurrently.
  virtual std::function<void()> sample(nn::Model& model, std::size_t batch,
                                       tensor::Rng& data,
                                       double& loss) const = 0;
  /// Held-out accuracy of `model`, in [0, 1].
  virtual double evaluate(nn::Model& model) const = 0;
};

/// MLP classifier on the Gaussian-cluster dataset, shaped by `base`.
class ClusterTask final : public TrainingTask {
 public:
  explicit ClusterTask(const TrainerConfig& base);
  nn::Model build(tensor::Rng& rng) const override;
  std::function<void()> sample(nn::Model& model, std::size_t batch,
                               tensor::Rng& data,
                               double& loss) const override;
  double evaluate(nn::Model& model) const override;

 private:
  TrainerConfig base_;
  nn::ClusterDataset dataset_;
};

/// Span-extraction fine-tuning (Table 1 proxy) over `positions` context
/// slots; features, hidden width, depth, noise and seed come from `base`
/// (its `classes` is unused). Its accuracy is the exact-match fraction.
class SpanTask final : public TrainingTask {
 public:
  SpanTask(const TrainerConfig& base, std::size_t positions);
  nn::Model build(tensor::Rng& rng) const override;
  std::function<void()> sample(nn::Model& model, std::size_t batch,
                               tensor::Rng& data,
                               double& loss) const override;
  double evaluate(nn::Model& model) const override;
  /// SQuAD-style F1 / exact match on the held-out sample.
  nn::SpanMetrics metrics(nn::Model& model) const;

 private:
  TrainerConfig base_;
  std::size_t positions_;
  nn::SpanDataset dataset_;
};

}  // namespace compso::core
