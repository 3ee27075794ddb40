#include "layers.hpp"

#include <string>

#include "src/hydra/solver.hpp"
#include "src/rig/annulus.hpp"
#include "src/util/timer.hpp"

namespace vcgtbench {

namespace {

constexpr std::array<const char*, 5> kLayers = {"op2", "minimpi", "hydra", "krylov", "jm76"};

}  // namespace

SetupTimes time_mesh_and_partition(const vcgt::jm76::CoupledConfig& cfg, int reps) {
  SetupTimes out;
  std::vector<double> mesh_s, part_s;
  for (int rep = 0; rep < reps; ++rep) {
    vcgt::util::Timer t;
    std::vector<vcgt::rig::AnnulusMesh> meshes;
    for (const auto& row : cfg.rig.rows) {
      meshes.push_back(vcgt::rig::generate_row_mesh(row, cfg.res));
    }
    mesh_s.push_back(t.elapsed());
    const auto& m0 = meshes.front();
    out.sizes = {static_cast<double>(m0.nface), static_cast<double>(m0.ncell)};
    vcgt::op2::Context ctx;
    vcgt::hydra::RowSolver solver(ctx, m0, cfg.rig.rows[0], cfg.rig.omega(), cfg.flow);
    t.reset();
    ctx.partition(cfg.partitioner, solver.cell_center());
    part_s.push_back(t.elapsed());
  }
  out.mesh_s = median(mesh_s);
  out.partition_s = median(part_s);
  return out;
}

std::uint64_t working_set_bytes(const vcgt::op2::Context& ctx) {
  std::uint64_t bytes = 0;
  for (const auto& d : ctx.dats()) {
    bytes += static_cast<std::uint64_t>(d->capacity()) * d->elem_bytes();
  }
  for (const auto& m : ctx.maps()) bytes += m->table().size() * sizeof(vcgt::op2::index_t);
  return bytes;
}

void fill_from_trace(LayerReport& lr, const SelfTimes& st, double steps, const LoopSizes& sizes,
                     double outer) {
  for (std::size_t i = 0; i < kLoops.size(); ++i) {
    const std::string suffix = std::string(":") + kLoops[i];
    const double self = st.suffix_s(suffix);
    const bool face_loop = std::string(kLoops[i]).find("face") != std::string::npos;
    const double elems = static_cast<double>(st.suffix_count(suffix)) *
                         (face_loop ? sizes.faces : sizes.cells);
    lr.loop_s[i] = safe_div(self, steps);
    lr.loop_elems_per_s[i] = safe_div(elems, self);
  }
  lr.chain_epoch_s = safe_div(st.prefix_s("chain:epoch"), steps);
  lr.halo_s = safe_div(st.prefix_s("halo:") + st.prefix_s("chain:epoch"), steps);
  lr.mpi_recv_wait_self_s = safe_div(st.prefix_s("mpi:recv_wait"), steps);
  double krylov_s = 0.0;
  double dot_s = 0.0;
  for (const auto& [name, s] : st.name_s) {
    if (layer_of(name) != "krylov") continue;
    krylov_s += s;
    if (name.find(":dot_") != std::string::npos) dot_s += s;
  }
  lr.krylov_loop_s = safe_div(krylov_s, steps);
  lr.krylov_dot_s = safe_div(dot_s, steps);
  if (outer > 0.0) {
    lr.krylov_iters_per_outer = static_cast<double>(st.suffix_count("ksolve:dot_pq")) / outer;
  }
  const auto inner = st.durations("hydra:inner_iter");
  const auto implicit = st.durations("hydra:implicit_iter");
  lr.hydra_inner_iter_p50_s = median(inner.empty() ? implicit : inner);
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    const auto it = st.layer_s.find(kLayers[i]);
    lr.self_frac[i] = it == st.layer_s.end() ? 0.0 : safe_div(it->second, st.window_s);
  }
  lr.unattributed_frac = st.unattributed_frac();
}

void emit_layers(Result& r, const LayerReport& lr) {
  r.layer("rig.mesh_s", lr.rig_mesh_s, "s");
  r.layer("op2.partition_s", lr.op2_partition_s, "s");
  for (std::size_t i = 0; i < kLoops.size(); ++i) {
    const std::string base = std::string("op2.loop.") + kLoops[i];
    r.layer(base + ".s", lr.loop_s[i], "s/step");
    r.layer(base + ".elems_per_s", lr.loop_elems_per_s[i], "1/s");
  }
  r.layer("op2.chain_epoch_s", lr.chain_epoch_s, "s/step");
  r.layer("op2.halo_s", lr.halo_s, "s/step");
  r.layer("op2.halo_msgs", lr.halo_msgs, "count/step");
  r.layer("op2.halo_bytes", lr.halo_bytes, "B/step");
  r.layer("op2.plancache.hit_frac", lr.plancache_hit_frac, "ratio");
  r.layer("op2.plancache.misses", lr.plancache_misses, "count");
  r.layer("op2.plancache.evictions", lr.plancache_evictions, "count");
  r.layer("op2.plancache.bytes", lr.plancache_bytes, "B");
  r.layer("minimpi.msgs", lr.mpi_msgs, "count/step");
  r.layer("minimpi.bytes", lr.mpi_bytes, "B/step");
  r.layer("minimpi.recv_wait_self_s", lr.mpi_recv_wait_self_s, "s/step");
  r.layer("minimpi.rank_wait_s.max", lr.mpi_rank_wait_max_s, "s/step");
  r.layer("minimpi.send_retries", lr.mpi_send_retries, "count");
  r.layer("hydra.inner_iter_s.p50", lr.hydra_inner_iter_p50_s, "s");
  r.layer("hydra.monitor_s.p50", lr.hydra_monitor_p50_s, "s");
  r.layer("hydra.busy_s", lr.hydra_busy_s, "s/step");
  r.layer("hydra.outer_iters", lr.hydra_outer_iters, "count");
  r.layer("krylov.iters_per_outer", lr.krylov_iters_per_outer, "ratio");
  r.layer("krylov.loop_s", lr.krylov_loop_s, "s/step");
  r.layer("krylov.dot_s", lr.krylov_dot_s, "s/step");
  r.layer("jm76.search_s", lr.jm76_search_s, "s/step");
  r.layer("jm76.candidates", lr.jm76_candidates, "count/step");
  r.layer("jm76.search_efficiency", lr.jm76_search_efficiency, "ratio");
  r.layer("jm76.coupler_wait_s", lr.jm76_coupler_wait_s, "s/step");
  r.layer("jm76.cu_busy_frac", lr.jm76_cu_busy_frac, "ratio");
  r.layer("serve.setup_cold_ms.p50", lr.serve_setup_cold_p50_ms, "ms");
  r.layer("serve.setup_warm_ms.p50", lr.serve_setup_warm_p50_ms, "ms");
  r.layer("serve.run_ms.p50", lr.serve_run_p50_ms, "ms");
  r.layer("serve.queue_ms.p50", lr.serve_queue_p50_ms, "ms");
  r.layer("serve.queue_ms.p99", lr.serve_queue_p99_ms, "ms");
  r.layer("serve.latency_ms.p99", lr.serve_latency_p99_ms, "ms");
  r.layer("serve.warm_frac", lr.serve_warm_frac, "ratio");
  r.layer("serve.reject_frac", lr.serve_reject_frac, "ratio");
  r.layer("serve.slo_misses", lr.serve_slo_misses, "count");
  r.layer("serve.submit_us.p99", lr.serve_submit_p99_us, "us");
  r.layer("bench.step_s.p90", lr.step_p90_s, "s");
  r.layer("bench.latency_ms.p90", lr.latency_p90_ms, "ms");
  r.layer("bench.gen_late_ms.p99", lr.gen_late_p99_ms, "ms");
  r.layer("bench.gen_late_ms.max", lr.gen_late_max_ms, "ms");
  for (std::size_t i = 0; i < kLayers.size(); ++i) {
    r.layer(std::string(kLayers[i]) + ".self_frac", lr.self_frac[i], "ratio");
  }
  r.layer("bench.unattributed_frac", lr.unattributed_frac, "ratio");
  r.layer("bench.trace_overhead_frac", lr.trace_overhead_frac, "ratio");
  r.layer("bench.trace_dropped", lr.trace_dropped, "count");
}

}  // namespace vcgtbench
