# Bench binaries. Included from the top-level CMakeLists (not
# add_subdirectory) so that build/bench holds ONLY the executables:
# pabp-experiments (every E-series result, one process), and the two
# host-timing benches bench_e11_micro and bench_replay_hot.

# The sweep runner library: RunSpec grids executed across a worker
# pool with deterministic, submission-ordered results. Shared by the
# bench binaries, the tools, benchmark/ and tests/test_sweep.cc.
add_library(pabp_sweep STATIC
    ${PROJECT_SOURCE_DIR}/bench/sweep.cc
    ${PROJECT_SOURCE_DIR}/bench/sweep_service.cc)
target_include_directories(pabp_sweep PUBLIC
    ${PROJECT_SOURCE_DIR}/bench)
target_link_libraries(pabp_sweep PUBLIC pabp_workloads pabp_pipeline
    pabp_core pabp_bpred pabp_compiler pabp_sim pabp_isa pabp_mem
    pabp_util)

set(BENCH_LIBS pabp_sweep pabp_workloads pabp_pipeline pabp_core
    pabp_bpred pabp_compiler pabp_sim pabp_isa pabp_mem pabp_util)

function(pabp_bench name)
    add_executable(${name} ${PROJECT_SOURCE_DIR}/bench/${name}.cc)
    target_link_libraries(${name} PRIVATE ${BENCH_LIBS})
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

# The E-series driver: one registered grid/table pair per experiment
# (bench/experiments.hh), each in its bench_e<N>_<name>.cc.
add_executable(pabp-experiments
    ${PROJECT_SOURCE_DIR}/bench/pabp_experiments.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e1_characterisation.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e2_baselines.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e3_sfpf_sizes.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e4_squash_rates.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e5_pgu_sizes.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e6_combined.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e7_region_branches.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e8_speedup.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e9_avail_delay.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e10_ablation.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e12_distance_histo.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e13_compiler_ablation.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e14_spec_squash.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e15_bias_sweep.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e16_pollution.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e17_selective.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e18_cross_input.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e19_pgu_bases.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e20_tage_h2p.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e21_interference.cc
    ${PROJECT_SOURCE_DIR}/bench/bench_e22_characterization.cc)
# E22 runs the mining campaign in-process.
target_link_libraries(pabp-experiments PRIVATE pabp_fuzz ${BENCH_LIBS})
set_target_properties(pabp-experiments PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

pabp_bench(bench_replay_hot)

pabp_bench(bench_e11_micro)
target_link_libraries(bench_e11_micro PRIVATE benchmark::benchmark)
