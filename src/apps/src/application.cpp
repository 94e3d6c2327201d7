#include "updsm/apps/application.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "updsm/common/error.hpp"

namespace updsm::apps {

void Application::run(dsm::NodeContext& ctx) {
  init(ctx);
  ctx.barrier();

  for (int iter = 1; iter <= total_iterations(); ++iter) {
    if (iter == params_.warmup_iterations + 1) {
      // Open the steady-state window. No extra barrier is inserted: the
      // window engages at the first barrier inside this iteration, keeping
      // the global barrier sequence strictly periodic -- bar-s / bar-m
      // predictions are keyed to that periodicity (an aperiodic barrier is
      // a phase change, which overdrive by design does not tolerate).
      ctx.begin_measurement();
    }
    ctx.iteration_begin();
    step(ctx, iter);
  }

  ctx.end_measurement();
  ctx.barrier();

  if (ctx.node() == 0) {
    checksum_ = compute_checksum(ctx);
  }
  ctx.barrier();
}

void validate_app_params(const AppParams& params) {
  if (!std::isfinite(params.scale) || params.scale <= 0.0) {
    throw UsageError("scale must be a finite number > 0, got " +
                     std::to_string(params.scale));
  }
  if (params.warmup_iterations < 0) {
    throw UsageError("warmup_iterations must be >= 0, got " +
                     std::to_string(params.warmup_iterations));
  }
  if (params.measured_iterations < 1) {
    throw UsageError("measured_iterations must be >= 1, got " +
                     std::to_string(params.measured_iterations));
  }
}

std::size_t scaled_dim(std::size_t base, double scale, std::size_t multiple) {
  auto scaled =
      static_cast<std::size_t>(static_cast<double>(base) * scale + 0.5);
  scaled = std::max(scaled, multiple);
  return (scaled / multiple) * multiple;
}

}  // namespace updsm::apps
