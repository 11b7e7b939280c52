#include "src/compress/compressor.hpp"

#include "src/common/payload_error.hpp"

#include <stdexcept>

namespace compso::compress {

double GradientCompressor::compression_ratio(std::span<const float> values,
                                             tensor::Rng& rng) const {
  if (values.empty()) return 1.0;
  const Bytes payload = compress(values, rng);
  if (payload.empty()) return 1.0;
  return static_cast<double>(values.size() * sizeof(float)) /
         static_cast<double>(payload.size());
}

void GradientCompressor::compress_feedback_into(
    std::span<const float> values, std::span<const float> residual,
    tensor::Rng& rng, Bytes& out, std::span<float> residual_out) const {
  const std::size_t n = values.size();
  if (residual.size() != n || residual_out.size() != n) {
    throw std::invalid_argument(
        "compress_feedback_into: residual size mismatch");
  }
  thread_local std::vector<float> c;
  thread_local std::vector<float> decoded;
  c.resize(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = values[i] + residual[i];
  compress_into(c, rng, out);
  decompress_into(out, decoded);
  if (decoded.size() != n) {
    throw PayloadError(
        "error-feedback: inner compressor round-trip changed element count");
  }
  for (std::size_t i = 0; i < n; ++i) residual_out[i] = c[i] - decoded[i];
}

double GradientCompressor::modeled_throughput(
    const gpusim::DeviceModel& dev, std::size_t input_bytes,
    std::size_t output_bytes) const noexcept {
  const GpuProfile p = gpu_profile();
  const gpusim::PipelineSpec spec{
      .input_bytes = input_bytes,
      .output_bytes = output_bytes,
      .stages = p.stages,
      .flops_per_byte = p.flops_per_byte,
      .bandwidth_efficiency = p.bandwidth_efficiency,
      .framework_ops_per_stage = p.framework_ops_per_stage,
      .memory_passes = p.memory_passes};
  return gpusim::pipeline_throughput(dev, spec, p.dispatch);
}

}  // namespace compso::compress
