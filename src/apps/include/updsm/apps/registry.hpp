// Application registry: the paper's eight workloads by name.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "updsm/apps/application.hpp"

namespace updsm::apps {

/// The paper's application names, in Table-1 order:
/// barnes, expl, fft, jacobi, shal, sor, swm, tomcat.
[[nodiscard]] std::vector<std::string_view> app_names();

/// Instantiates one application. Throws UsageError on unknown names.
[[nodiscard]] std::unique_ptr<Application> make_app(std::string_view name,
                                                    const AppParams& params);

}  // namespace updsm::apps
