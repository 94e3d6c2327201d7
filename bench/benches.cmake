# One binary per paper table/figure plus ablations; all runnable without
# arguments ("for b in build/bench/*; do $b; done") with paper-scale
# defaults, each taking the shared flags (see --help).
# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains ONLY the bench binaries: the canonical run loop is
#   for b in build/bench/*; do $b; done
# Every BENCH_*.json stamps the build type in its provenance.
function(updsm_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE updsm::harness updsm::apps updsm::protocols)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  target_compile_definitions(${name}
    PRIVATE UPDSM_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

updsm_add_bench(table1_base_stats)
updsm_add_bench(fig2_speedups)
updsm_add_bench(fig3_breakdown)
updsm_add_bench(fig4_overdrive)
updsm_add_bench(claims_summary)
updsm_add_bench(ablation_os_stress)
updsm_add_bench(ablation_page_size)
updsm_add_bench(ablation_nodes)
updsm_add_bench(ablation_migration)
updsm_add_bench(ablation_faults)
updsm_add_bench(ablation_profiles)
updsm_add_bench(ablation_async)
updsm_add_bench(sweep_matrix)
updsm_add_bench(convergence_timeline)
