#include "src/core/task.hpp"

namespace compso::core {
namespace {

/// Span loss: cross-entropy on the start head + on the end head of the
/// (batch, 2 * positions) logits.
double span_loss(const tensor::Tensor& logits,
                 const nn::SpanDataset::SpanBatch& batch, std::size_t p,
                 tensor::Tensor& grad) {
  const std::size_t b = logits.rows();
  tensor::Tensor start_logits({b, p}), end_logits({b, p});
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      start_logits.at(r, c) = logits.at(r, c);
      end_logits.at(r, c) = logits.at(r, p + c);
    }
  }
  tensor::Tensor gs, ge;
  const double ls = nn::softmax_cross_entropy(start_logits, batch.start, gs);
  const double le = nn::softmax_cross_entropy(end_logits, batch.end, ge);
  grad = tensor::Tensor({b, 2 * p});
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      grad.at(r, c) = 0.5F * gs.at(r, c);
      grad.at(r, p + c) = 0.5F * ge.at(r, c);
    }
  }
  return 0.5 * (ls + le);
}

}  // namespace

CompressorProvider fixed_provider(
    const compress::GradientCompressor* compressor) {
  return [compressor](std::size_t) { return compressor; };
}

// ------------------------------------------------------------ ClusterTask

ClusterTask::ClusterTask(const TrainerConfig& base)
    : base_(base),
      dataset_(base.features, base.classes, base.noise,
               base.seed ^ 0xDA7A5E7ULL) {}

nn::Model ClusterTask::build(tensor::Rng& rng) const {
  return nn::make_mlp_classifier(base_.features, base_.hidden, base_.classes,
                                 base_.depth, rng);
}

std::function<void()> ClusterTask::sample(nn::Model& model, std::size_t batch,
                                          tensor::Rng& data,
                                          double& loss) const {
  return [&model, &loss, b = dataset_.sample(batch, data)] {
    const auto logits = model.forward(b.x);
    tensor::Tensor grad;
    loss = nn::softmax_cross_entropy(logits, b.labels, grad);
    model.backward(grad);
  };
}

double ClusterTask::evaluate(nn::Model& model) const {
  tensor::Rng rng(base_.seed ^ 0xE7A1ULL);
  const auto batch = dataset_.sample(512, rng);
  const auto logits = model.forward(batch.x);
  return nn::accuracy(logits, batch.labels);
}

// --------------------------------------------------------------- SpanTask

SpanTask::SpanTask(const TrainerConfig& base, std::size_t positions)
    : base_(base),
      positions_(positions),
      dataset_(positions, base.features, base.noise, base.seed ^ 0x51AD5ULL) {}

nn::Model SpanTask::build(tensor::Rng& rng) const {
  return nn::make_span_model(base_.features, base_.hidden, positions_,
                             base_.depth, rng);
}

std::function<void()> SpanTask::sample(nn::Model& model, std::size_t batch,
                                       tensor::Rng& data,
                                       double& loss) const {
  return [&model, &loss, p = positions_, b = dataset_.sample(batch, data)] {
    const auto logits = model.forward(b.x);
    tensor::Tensor grad;
    loss = span_loss(logits, b, p, grad);
    model.backward(grad);
  };
}

double SpanTask::evaluate(nn::Model& model) const {
  return metrics(model).exact_match / 100.0;
}

nn::SpanMetrics SpanTask::metrics(nn::Model& model) const {
  tensor::Rng rng(base_.seed ^ 0xE7A2ULL);
  const auto batch = dataset_.sample(512, rng);
  const auto logits = model.forward(batch.x);
  const std::size_t p = positions_;
  std::vector<int> ps(batch.start.size()), pe(batch.end.size());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    std::size_t bs = 0, be = 0;
    for (std::size_t c = 1; c < p; ++c) {
      if (logits.at(r, c) > logits.at(r, bs)) bs = c;
      if (logits.at(r, p + c) > logits.at(r, p + be)) be = c;
    }
    ps[r] = static_cast<int>(bs);
    pe[r] = static_cast<int>(be);
  }
  return nn::span_metrics(ps, pe, batch.start, batch.end);
}

}  // namespace compso::core
