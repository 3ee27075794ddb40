// Table III reproduction: OP2 communication optimizations — partial halo
// exchanges (PH), grouped halo messages (GH) and the staged/GPU-side gather
// for coupler payloads (GG).
//
// Layer 1 (measured): a distributed hydra row over minimpi rank-threads with
// each optimization toggled, metering exchanged halo bytes and message
// counts (the quantities the optimizations exist to reduce), plus the
// coupled staged-gather message shape.
// Layer 2 (model): projected per-step runtimes at the paper's ARCHER2 and
// Cirrus configurations next to the published Table III values.
//
// Zero-copy transport layer: bandwidth-regime halo bytes/s as a fraction of
// an in-run memcpy of the same per-epoch payload, the latency regime
// (reported), the steady-state allocation gate, and the coupled-rig
// layout bit-identity matrix. Results land in BENCH_halo.json; floor
// violations fail the exit status (--quick shrinks sizes for the CI gate
// without relaxing the floors).
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>

#include "bench/bench_common.hpp"
#include "src/hydra/solver.hpp"
#include "src/jm76/coupled.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/perf/costmodel.hpp"
#include "src/util/timer.hpp"

using namespace vcgt;

namespace {

struct HaloMeasurement {
  std::uint64_t bytes = 0;
  std::uint64_t msgs = 0;
};

HaloMeasurement run_row(bool partial, bool grouped, int nranks, int steps) {
  HaloMeasurement out;
  const auto rig = rig::rig250_spec(1);
  const auto res = rig::resolution_tier("coarse");
  const auto mesh = rig::generate_row_mesh(rig.rows[0], res);
  hydra::FlowConfig flow;
  flow.inner_iters = 3;
  minimpi::World::run(nranks, [&](minimpi::Comm& comm) {
    op2::Config cfg;
    cfg.partial_halos = partial;
    cfg.grouped_halos = grouped;
    op2::Context ctx(comm, cfg);
    hydra::RowSolver solver(ctx, mesh, rig.rows[0], rig.omega(), flow);
    ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
    solver.initialize();
    for (int t = 0; t < steps; ++t) {
      solver.advance_inner(flow.inner_iters);
      solver.shift_time_levels();
    }
    if (comm.rank() == 0) {
      const auto s = ctx.total_stats();
      out.bytes = s.halo_bytes;
      out.msgs = s.halo_msgs;
    }
    // Meters are per-rank; aggregate across ranks.
    const auto bytes = comm.allreduce_sum_u64(ctx.total_stats().halo_bytes);
    const auto msgs = comm.allreduce_sum_u64(ctx.total_stats().halo_msgs);
    if (comm.rank() == 0) {
      out.bytes = bytes;
      out.msgs = msgs;
    }
  });
  return out;
}

/// Binds the calling thread to one CPU (wrapping at the CPU count). Left to
/// the scheduler, a fresh two-rank world started after the machine sat
/// idle ran its halo epochs about 1.8x slower for the whole process (seen
/// on a 4-vCPU VM); pinned, it does not.
void pin_to_cpu(int cpu) {
  const int n = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Keeps every CPU busy at SCHED_IDLE priority while alive, so the CPU of a
/// rank blocked in a receive never halts: on a virtual machine a halted
/// vCPU can take tens to hundreds of microseconds to wake. Any real thread
/// preempts these.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        const sched_param param{};
        (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One timed halo-exchange run: a two-loop epoch (direct write, then an
/// indirect read through a half-shift map) over `ncell` elements whose halo
/// is half the mesh — every epoch moves ncell/2 * ncomp doubles per rank
/// each way, so the exchange dominates and the regime is set by
/// ncell * ncomp (large = bandwidth, small = latency).
struct ZcRun {
  double seconds = 0;               ///< timed epochs, barrier-fenced wall
  std::uint64_t site_allocs = 0;    ///< halo_buffer_allocs delta (sum over ranks)
  std::uint64_t slab_allocs = 0;    ///< pool freelist misses delta (world pool)
  std::uint64_t msgs = 0;           ///< halo messages delta (sum over ranks)
  std::uint64_t bytes = 0;          ///< halo payload bytes delta
  std::uint64_t copies_avoided = 0; ///< send_owned moves delta (world pool)
};

ZcRun run_zc_micro(int nranks, op2::index_t ncell, int ncomp, int warm, int epochs) {
  ZcRun out;
  minimpi::World::run(nranks, [&](minimpi::Comm& comm) {
    pin_to_cpu(comm.rank() + 1);
    op2::Context ctx(comm, op2::Config{});
    auto& cells = ctx.decl_set("cells", ncell);
    std::vector<double> centers(static_cast<std::size_t>(ncell) * 3, 0.0);
    for (op2::index_t i = 0; i < ncell; ++i) {
      centers[static_cast<std::size_t>(i) * 3] = static_cast<double>(i);
    }
    std::vector<op2::index_t> shift(static_cast<std::size_t>(ncell));
    for (op2::index_t i = 0; i < ncell; ++i) {
      shift[static_cast<std::size_t>(i)] = (i + ncell / 2) % ncell;
    }
    auto& map = ctx.decl_map("shift", cells, cells, 1, std::move(shift));
    auto& cc = ctx.decl_dat<double>(cells, 3, "cc", centers);
    auto& v = ctx.decl_dat<double>(cells, ncomp, "v");
    auto& acc = ctx.decl_dat<double>(cells, 1, "acc");
    ctx.partition(op2::Partitioner::Rcb, cc);
    auto epoch = [&] {
      op2::par_loop("write_v", cells, [](double* x) { x[0] += 1.0; }, op2::write(v));
      op2::par_loop("read_shift", cells,
                    [](const double* x, double* a) { *a = x[0]; },
                    op2::read(v, map, 0), op2::write(acc));
    };
    for (int i = 0; i < warm; ++i) epoch();
    comm.barrier();
    const auto allocs0 = ctx.halo_buffer_allocs();
    const auto stats0 = ctx.total_stats();
    const auto pool0 = comm.pool_stats();
    comm.barrier();
    util::Timer t;
    for (int i = 0; i < epochs; ++i) epoch();
    comm.barrier();
    const double sec = t.elapsed();
    const auto site = comm.allreduce_sum_u64(ctx.halo_buffer_allocs() - allocs0);
    const auto stats1 = ctx.total_stats();
    const auto msgs = comm.allreduce_sum_u64(stats1.halo_msgs - stats0.halo_msgs);
    const auto bytes = comm.allreduce_sum_u64(stats1.halo_bytes - stats0.halo_bytes);
    if (comm.rank() == 0) {
      const auto pool1 = comm.pool_stats();
      out.seconds = sec;
      out.site_allocs = site;
      out.msgs = msgs;
      out.bytes = bytes;
      out.slab_allocs = pool1.slab_allocs - pool0.slab_allocs;
      out.copies_avoided = pool1.copies_avoided - pool0.copies_avoided;
    }
  });
  return out;
}

/// In-run hardware reference for the halo gate: seconds for `reps`
/// single-thread memcpys of `nbytes` between two pre-touched buffers.
double memcpy_seconds(std::size_t nbytes, int reps) {
  std::vector<std::byte> src(nbytes, std::byte{1}), dst(nbytes);
  std::memcpy(dst.data(), src.data(), nbytes);
  util::Timer t;
  for (int i = 0; i < reps; ++i) {
    std::memcpy(dst.data(), src.data(), nbytes);
    src[static_cast<std::size_t>(i) % nbytes] = dst[nbytes - 1];  // keep every copy live
  }
  return t.elapsed();
}

/// Coupled two-row rig for `steps` steps; returns the row-1 global flow
/// state (captured on the row's rank 0; fetch_global is row-collective).
std::vector<double> run_coupled_state(const std::vector<int>& hs_ranks, op2::Layout layout) {
  jm76::CoupledConfig cfg;
  cfg.rig = rig::rig250_spec(2);
  cfg.res = rig::resolution_tier("tiny");
  cfg.flow.inner_iters = 2;
  cfg.flow.dt_phys = 5e-5;
  cfg.flow.rotor_swirl_frac = 0.05;
  cfg.flow.stator_swirl_frac = 0.02;
  cfg.hs_ranks = hs_ranks;
  cfg.cus_per_interface = 1;
  cfg.pipelined = false;
  cfg.op2cfg.default_layout = layout;
  std::vector<double> out;
  minimpi::World::run(cfg.layout().world_size(), [&](minimpi::Comm& world) {
    jm76::CoupledRig rigrun(world, cfg);
    rigrun.run(3);
    if (rigrun.solver() != nullptr) {
      auto g = rigrun.solver()->context().fetch_global(rigrun.solver()->q());
      if (rigrun.role().row == 1 && rigrun.role().rank_in_row == 0) out = std::move(g);
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const int nranks = static_cast<int>(cli.get_int("ranks", 8));
  const int steps = static_cast<int>(cli.get_int("steps", quick ? 2 : 4));

  bench::header("Table III: OP2 communication optimizations (PH / GH / GG)",
                "paper Table III, SS IV-A5");

  bench::section(util::fmt(
      "measured: one coarse Rig250 row on {} rank-threads, {} steps — halo traffic", nranks,
      steps));
  util::Table meas({"config", "halo MB", "halo msgs", "bytes vs default", "msgs vs default"});
  const auto base = run_row(false, false, nranks, steps);
  struct Case {
    const char* name;
    bool ph, gh;
  };
  for (const Case c : {Case{"default", false, false}, Case{"+PH", true, false},
                       Case{"+GH", false, true}, Case{"+PH+GH", true, true}}) {
    const auto m = run_row(c.ph, c.gh, nranks, steps);
    meas.add_row({c.name, util::Table::num(m.bytes / 1e6, 3), std::to_string(m.msgs),
                  util::Table::num(static_cast<double>(m.bytes) / base.bytes, 3),
                  util::Table::num(static_cast<double>(m.msgs) / base.msgs, 3)});
  }
  meas.print_text(std::cout);
  util::write_csv(meas, "table3_measured_halo.csv");

  // PH's motivating pattern (paper SS IV-A5): "sets representing the
  // boundary of the mesh ... only have connectivity with a few internal
  // mesh elements", so when a boundary loop is the first reader of a dirty
  // dat, only those few halo elements need exchanging. The full hydra step
  // above refreshes halos via interior loops first, which masks PH; this
  // micro-sequence isolates it: write a cell dat, then read it only through
  // a boundary-face map.
  bench::section("measured: boundary-only reader micro-sequence (PH's motivating case)");
  util::Table phm({"config", "halo bytes", "halo msgs"});
  for (const bool partial : {false, true}) {
    const auto rig1 = rig::rig250_spec(1);
    const auto mesh1 = rig::generate_row_mesh(rig1.rows[0], rig::resolution_tier("coarse"));
    std::uint64_t bytes = 0, msgs = 0;
    minimpi::World::run(nranks, [&](minimpi::Comm& comm) {
      op2::Config ocfg;
      ocfg.partial_halos = partial;
      op2::Context ctx(comm, ocfg);
      auto& cells = ctx.decl_set("cells", mesh1.ncell);
      auto& hub = ctx.decl_set("hub", mesh1.group_size(rig::BoundaryGroup::Hub));
      // Two entries per boundary face: its own cell plus the next face's
      // cell around the annulus — the second hop crosses partitions and is
      // what creates (small) halo demand.
      std::vector<op2::index_t> b2c;
      const auto hb = mesh1.group_begin[static_cast<std::size_t>(rig::BoundaryGroup::Hub)];
      const auto nhub = hub.global_size();
      for (op2::index_t b = 0; b < nhub; ++b) {
        b2c.push_back(mesh1.bface2cell[static_cast<std::size_t>(hb + b)]);
        b2c.push_back(mesh1.bface2cell[static_cast<std::size_t>(hb + (b + 1) % nhub)]);
      }
      auto& map = ctx.decl_map("b2c", hub, cells, 2, std::move(b2c));
      auto& cc = ctx.decl_dat<double>(cells, 3, "cc", mesh1.cell_center);
      auto& v = ctx.decl_dat<double>(cells, 5, "v");
      auto& acc = ctx.decl_dat<double>(hub, 1, "acc");
      ctx.partition(op2::Partitioner::Rcb, cc);
      for (int t = 0; t < steps; ++t) {
        op2::par_loop("write_v", cells,
                      [](double* x) {
                        for (int c = 0; c < 5; ++c) x[c] = 1.0;
                      },
                      op2::write(v));
        op2::par_loop("read_boundary", hub,
                      [](const double* x, const double* y, double* a) { *a = x[0] + y[0]; },
                      op2::read(v, map, 0),
                      op2::read(v, map, 1),
                      op2::write(acc));
      }
      const auto b = comm.allreduce_sum_u64(ctx.total_stats().halo_bytes);
      const auto mm = comm.allreduce_sum_u64(ctx.total_stats().halo_msgs);
      if (comm.rank() == 0) {
        bytes = b;
        msgs = mm;
      }
    });
    phm.add_row({partial ? "+PH" : "default", std::to_string(bytes), std::to_string(msgs)});
  }
  phm.print_text(std::cout);
  util::write_csv(phm, "table3_measured_ph_micro.csv");

  // Staged gather (GG): message count per coupled step with the toggle.
  bench::section("measured: coupler payload messages per interface step (GG toggle)");
  util::Table gg({"staged_gather", "world msgs", "world bytes"});
  for (const bool staged : {false, true}) {
    jm76::CoupledConfig ccfg;
    ccfg.rig = rig::rig250_spec(2);
    ccfg.res = rig::resolution_tier("coarse");
    ccfg.flow.inner_iters = 1;
    ccfg.hs_ranks = {2, 2};
    ccfg.cus_per_interface = 2;
    ccfg.staged_gather = staged;
    ccfg.pipelined = false;
    std::uint64_t msgs = 0, bytes = 0;
    minimpi::World::run(ccfg.layout().world_size(), [&](minimpi::Comm& world) {
      jm76::CoupledRig rigrun(world, ccfg);
      world.barrier();
      if (world.rank() == 0) world.reset_traffic();  // ignore setup traffic
      world.barrier();
      rigrun.run(3);
      world.barrier();
      if (world.rank() == 0) {
        const auto t = world.traffic();
        msgs = t.messages;
        bytes = t.bytes;
      }
    });
    gg.add_row({staged ? "on (GG)" : "off", std::to_string(msgs), std::to_string(bytes)});
  }
  gg.print_text(std::cout);
  util::write_csv(gg, "table3_measured_gg.csv");

  // -------------------------------------------------------------------------
  // Zero-copy transport: bandwidth vs memcpy, steady-state allocation gate,
  // layout bit-identity.
  int gate_failures = 0;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++gate_failures;
      std::cout << "GATE FAIL: " << what << "\n";
    }
  };

  bench::section("measured: zero-copy halo transport vs in-run memcpy");
  const int bw_cells = quick ? 12000 : 40000;
  const int bw_comp = 64;
  const int bw_epochs = quick ? 6 : 10;
  const int lat_cells = 2048;
  const int lat_comp = 2;
  const int lat_epochs = quick ? 40 : 100;
  const int trials = 9;

  // Best-of-N wall time per regime and for the memcpy reference, measured
  // interleaved with every vCPU kept awake; the meters are gated on every
  // trial.
  double bw_s = 1e30, memcpy_s = 1e30, lat_s = 1e30;
  ZcRun bw_run;
  std::optional<IdleSpinners> spinners(std::in_place);
  for (int r = 0; r < trials; ++r) {
    const auto b = run_zc_micro(2, bw_cells, bw_comp, 3, bw_epochs);
    if (b.seconds < bw_s) {
      bw_s = b.seconds;
      bw_run = b;
    }
    // Deterministic per-site meter: zero growth after warm-up.
    gate(b.site_allocs == 0, "steady-state halo buffer growth != 0");
    // Every steady-state message moved its payload (no copies on the
    // clean path); pool growth, if any, is transient warm-up — never
    // per-message.
    gate(b.copies_avoided == b.msgs, "halo transport copied a payload");
    gate(b.slab_allocs * 4 <= b.msgs, "pool allocating per message");
    const auto epoch_bytes = b.bytes / static_cast<std::uint64_t>(bw_epochs);
    memcpy_s = std::min(memcpy_s, memcpy_seconds(epoch_bytes, bw_epochs));
    lat_s = std::min(lat_s, run_zc_micro(2, lat_cells, lat_comp, 3, lat_epochs).seconds);
  }
  spinners.reset();
  // Same bytes both ways, so the bandwidth fraction is a time ratio.
  const double bw_bytes_per_s = static_cast<double>(bw_run.bytes) / bw_s;
  const double memcpy_bytes_per_s = static_cast<double>(bw_run.bytes) / memcpy_s;
  const double bw_frac = bw_bytes_per_s / memcpy_bytes_per_s;
  util::Table zc({"regime", "payload/epoch", "halo s", "halo GB/s", "memcpy GB/s",
                  "fraction"});
  zc.add_row({"bandwidth",
              util::fmt("{} MB", bw_run.bytes / static_cast<std::uint64_t>(bw_epochs) / 1000000),
              util::Table::num(bw_s, 4), util::Table::num(bw_bytes_per_s / 1e9, 2),
              util::Table::num(memcpy_bytes_per_s / 1e9, 2), util::Table::num(bw_frac, 3)});
  zc.add_row({"latency", util::fmt("{} KB", lat_cells / 2 * lat_comp * 8 / 1000),
              util::Table::num(lat_s, 4), "-", "-", "-"});
  zc.print_text(std::cout);
  std::cout << util::fmt(
      "steady state ({} msgs): site allocs {}, pool slab allocs {}, payload moves {}\n",
      bw_run.msgs, bw_run.site_allocs, bw_run.slab_allocs, bw_run.copies_avoided);
  // Floor: 1.25x the fraction the former copying transport reached under
  // this same procedure (median 0.546 over 24 --quick runs on a 4-vCPU
  // x86 VM), i.e. the old ">= 1.25x speedup over the copying path" bar
  // restated against the hardware. The latency regime is reported but not
  // gated (per-message overhead is mailbox bookkeeping, not payload
  // motion).
  constexpr double kBwFracFloor = 0.68;
  gate(bw_frac >= kBwFracFloor,
       util::fmt("bandwidth-regime fraction of memcpy {} < {} floor",
                 util::Table::num(bw_frac, 3), kBwFracFloor));

  // Layouts repack every dat the transport gathers and scatters, so a
  // transport bug that depends on the payload shape breaks bit-identity
  // against the AoS reference.
  bench::section("measured: coupled-rig bit-identity (SoA/AoSoA vs AoS)");
  util::Table bits({"hs ranks/row", "layout", "identical to aos"});
  bool all_identical = true;
  for (const int rr : {1, 2, 3}) {
    const auto ref = run_coupled_state({rr, rr}, op2::Layout::AoS);
    for (const op2::Layout lay : {op2::Layout::SoA, op2::Layout::AoSoA}) {
      const auto got = run_coupled_state({rr, rr}, lay);
      const bool same = got.size() == ref.size() && !ref.empty() &&
                        std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)) == 0;
      all_identical = all_identical && same;
      bits.add_row({std::to_string(rr), op2::layout_name(lay), same ? "yes" : "NO"});
    }
  }
  bits.print_text(std::cout);
  gate(all_identical, "coupled-rig state differs between layouts");

  bench::write_bench_json(
      "halo", {{"bw_frac_of_memcpy", bw_frac},
               {"bw_frac_floor", kBwFracFloor},
               {"bw_seconds", bw_s},
               {"bw_bytes_per_s", bw_bytes_per_s},
               {"memcpy_bytes_per_s", memcpy_bytes_per_s},
               {"lat_seconds", lat_s},
               {"steady_site_allocs", static_cast<double>(bw_run.site_allocs)},
               {"steady_slab_allocs", static_cast<double>(bw_run.slab_allocs)},
               {"steady_msgs", static_cast<double>(bw_run.msgs)},
               {"steady_copies_avoided", static_cast<double>(bw_run.copies_avoided)},
               {"bit_identical", all_identical ? 1.0 : 0.0},
               {"gate_failures", static_cast<double>(gate_failures)}});

  // Model layer: communication cost (halo + coupler transfer) per step at
  // the paper's configs. The paper's Table III runtimes cover an unspecified
  // iteration count, so the reproduction target is the *ordering and
  // relative gains* of the optimization ladder, not absolute seconds.
  bench::section("model: projected communication s/step at the paper's node counts");
  util::Table proj({"system", "mesh", "nodes", "default comm", "+PH", "+GG+GH+PH",
                    "best/default", "paper best/default"});
  struct PaperRow {
    const char* system;
    perf::MachineSpec machine;
    perf::WorkloadSpec wl;
    int nodes;
    double paper_default, paper_best;
  };
  const PaperRow rows[] = {
      {"ARCHER2", perf::archer2(), perf::w430m(), 27, 41.62, 39.87},
      {"ARCHER2", perf::archer2(), perf::w458b(), 288, 41.24, 18.19},
      {"Cirrus", perf::cirrus(), perf::w430m(), 25, 19.07, 5.09},
      {"Cirrus", perf::cirrus(), perf::w653m(), 29, 23.79, 6.74},
  };
  auto comm_cost = [](const perf::StepCost& c) { return c.halo + c.coupler_wait; };
  for (const auto& r : rows) {
    perf::ScalingModel model(r.machine, r.wl);
    perf::ModelOptions def, ph, all;
    def.partial_halos = ph.partial_halos = all.partial_halos = false;
    def.grouped_halos = ph.grouped_halos = all.grouped_halos = false;
    def.staged_gather = ph.staged_gather = all.staged_gather = false;
    ph.partial_halos = true;
    all.partial_halos = all.grouped_halos = all.staged_gather = true;
    const double cd = comm_cost(model.step_cost(r.nodes, def));
    const double cp = comm_cost(model.step_cost(r.nodes, ph));
    const double ca = comm_cost(model.step_cost(r.nodes, all));
    proj.add_row({r.system, r.wl.name, std::to_string(r.nodes), util::Table::num(cd, 3),
                  util::Table::num(cp, 3), util::Table::num(ca, 3),
                  util::Table::num(ca / cd, 2),
                  util::Table::num(r.paper_best / r.paper_default, 2)});
  }
  proj.print_text(std::cout);
  util::write_csv(proj, "table3_model.csv");

  std::cout << "\nPaper shape check: PH trims a few percent of halo bytes on CPU; grouping\n"
               "plus the staged gather removes most per-message device-copy overhead on\n"
               "GPU nodes (paper: 60-70% runtime reduction on Cirrus, modest on ARCHER2\n"
               "where packing outweighs latency).\n";
  if (gate_failures > 0) {
    std::cout << "\n" << gate_failures << " transport gate(s) FAILED\n";
    return 1;
  }
  return 0;
}
