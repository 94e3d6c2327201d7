#include "updsm/apps/registry.hpp"

#include "updsm/apps/async_stencil.hpp"
#include "updsm/apps/barnes.hpp"
#include "updsm/apps/expl.hpp"
#include "updsm/apps/fft.hpp"
#include "updsm/apps/jacobi.hpp"
#include "updsm/apps/shallow.hpp"
#include "updsm/apps/sor.hpp"
#include "updsm/apps/tomcatv.hpp"
#include "updsm/common/error.hpp"

namespace updsm::apps {

std::vector<std::string_view> app_names() {
  return {"barnes", "expl", "fft", "jacobi", "shal", "sor", "swm", "tomcat"};
}

std::unique_ptr<Application> make_app(std::string_view name,
                                      const AppParams& params) {
  if (name == "barnes") return std::make_unique<BarnesApp>(params);
  if (name == "expl") return std::make_unique<ExplApp>(params);
  if (name == "fft") return std::make_unique<FftApp>(params);
  if (name == "jacobi") return std::make_unique<JacobiApp>(params);
  if (name == "shal") {
    return std::make_unique<ShallowApp>(params, "shal", 256,
                                        /*fine_grained=*/false,
                                        /*shifted_smoothing=*/false);
  }
  if (name == "sor") return std::make_unique<SorApp>(params);
  if (name == "swm") {
    return std::make_unique<ShallowApp>(params, "swm", 256,
                                        /*fine_grained=*/true,
                                        /*shifted_smoothing=*/true);
  }
  if (name == "tomcat") return std::make_unique<TomcatvApp>(params);
  if (name == "jacobi-async") {
    return std::make_unique<AsyncStencilApp>(params, StencilKind::Jacobi);
  }
  if (name == "sor-async") {
    return std::make_unique<AsyncStencilApp>(params, StencilKind::SorRb);
  }
  throw UsageError("unknown application: " + std::string(name));
}

}  // namespace updsm::apps
