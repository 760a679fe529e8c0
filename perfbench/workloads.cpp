// The benchmark workloads (perfbench/README.md says why each exists).  The
// library is driven only through its public calls: QmgContext, Multigrid,
// WilsonCloverOp, CoarseDirac, Transfer, fields/blas.h, parallel_for,
// SolveQueue and GaugeStream.

#include "workloads.h"

#include <sys/resource.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "core/qmg.h"
#include "parallel/autotune.h"

namespace perfbench {
namespace {

using namespace qmg;
using Field = ColorSpinorField<double>;

constexpr double kTol = 1e-7;
// True-residual gate: |b - M x| / |b| recomputed in double on the full
// (not even-odd) system may exceed the solver's Schur-system tolerance by
// the reconstruction's conditioning; 10x is the allowance.
constexpr double kResidualSlack = 10;
// Pion correlator t <-> Lt - t symmetry holds on the ensemble average, not
// per configuration; a single configuration may break it by this factor.
constexpr double kCorrelatorSymmetry = 2;
// The gauge configuration (and the stream's Markov chain) is part of the
// problem, fixed per workload; the run seed varies the point-source site
// and the service's arrivals and right-hand sides.
constexpr std::uint64_t kEnsembleSeed = 7;
constexpr int kPropagatorRhs = 12;
// Sources per block-propagator job also solved by BiCGStab, the yardstick
// that bypasses MG.
constexpr int kYardstickRhs = 3;

// --- problem -----------------------------------------------------------

ContextOptions problem_options(const Args& a, const Coord& dims) {
  ContextOptions o;
  o.dims = dims;
  o.mass = -0.03;
  o.roughness = 0.5;
  o.seed = kEnsembleSeed;
  o.threads = a.threads;
  return o;
}

Coord fine_dims(const Args& a) {
  return a.smoke ? Coord{4, 4, 4, 4} : Coord{8, 8, 8, 8};
}
Coord service_dims(const Args& a) {
  return a.smoke ? Coord{4, 4, 4, 4} : Coord{4, 4, 4, 8};
}

MgConfig mg_config(const Args& a) {
  MgLevelConfig level;
  level.block = {2, 2, 2, 2};
  level.nvec = 8;
  level.null_iters = a.smoke ? 10 : 60;
  MgConfig mg;
  mg.levels = {level};
  return mg;
}

/// max_iter 0 keeps the method's default cap.
SolveSpec mg_spec(int max_iter = 0) {
  SolveSpec s;
  s.tol = kTol;
  s.max_iter = max_iter;
  return s;
}
SolveSpec bicgstab_spec(int max_iter = 0) {
  SolveSpec s = mg_spec(max_iter);
  s.method = SolveMethod::BiCgStab;
  return s;
}

/// The 12 spin x color point sources at one site.
std::vector<Field> point_sources(const QmgContext& ctx, long site) {
  std::vector<Field> b;
  for (int s = 0; s < 4; ++s)
    for (int c = 0; c < 3; ++c) {
      b.push_back(ctx.create_vector());
      b.back().point_source(site, s, c);
    }
  return b;
}

std::vector<Field> zeros(const QmgContext& ctx, size_t n) {
  std::vector<Field> x;
  for (size_t k = 0; k < n; ++k) x.push_back(ctx.create_vector());
  return x;
}

// --- correctness gate --------------------------------------------------

/// |b - M x| / |b| in double through the context's full operator.
double true_residual(const QmgContext& ctx, const Field& x, const Field& b) {
  Field r = ctx.create_vector();
  ctx.op().apply(r, x);
  blas::axpby(1.0, b, -1.0, r);
  return std::sqrt(blas::norm2(r) / blas::norm2(b));
}

void verify(Gate& gate, const QmgContext& ctx, const Field& x, const Field& b,
            const SolverResult& r, const std::string& what) {
  const double res = true_residual(ctx, x, b);
  const bool ok = r.converged && std::isfinite(res) &&
                  res <= kResidualSlack * kTol;
  gate.observe("max true residual", res);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: converged=%d true residual %.3e",
                what.c_str(), r.converged ? 1 : 0, res);
  gate.check(ok, buf);
}

/// Pion correlator C(t) = sum over the 12 propagator columns and all sites
/// of timeslice t0 + t of |x|^2: positive everywhere, and C(t) within
/// kCorrelatorSymmetry of C(Lt - t).
void check_correlator(Gate& gate, const QmgContext& ctx,
                      const std::vector<Field>& prop, long src_site) {
  const auto& geom = *ctx.geometry();
  const int lt = geom.dims()[3];
  const int t0 = geom.coords(src_site)[3];
  std::vector<double> corr(static_cast<size_t>(lt), 0.0);
  for (long i = 0; i < geom.volume(); ++i) {
    const int t = (geom.coords(i)[3] - t0 + lt) % lt;
    double sum = 0;
    for (const auto& x : prop)
      for (int s = 0; s < x.nspin(); ++s)
        for (int c = 0; c < x.ncolor(); ++c) sum += norm2(x(i, s, c));
    corr[static_cast<size_t>(t)] += sum;
  }
  for (int t = 0; t < lt; ++t) {
    const double c = corr[static_cast<size_t>(t)];
    gate.require(std::isfinite(c) && c > 0,
                 "correlator C(" + std::to_string(t) + ") not positive");
  }
  for (int t = 1; t < lt / 2; ++t) {
    const double r = corr[static_cast<size_t>(t)] /
                     corr[static_cast<size_t>(lt - t)];
    gate.observe("max correlator asymmetry", std::max(r, 1 / r));
    char buf[120];
    std::snprintf(buf, sizeof buf, "correlator C(%d)/C(%d) = %.3f", t, lt - t,
                  r);
    gate.require(r <= kCorrelatorSymmetry && r >= 1 / kCorrelatorSymmetry,
                 buf);
  }
}

bool bits_equal(const Field& a, const Field& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(a.data()[0])) ==
             0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- per-layer meters ----------------------------------------------------

/// Library counters accumulated over the MG solves of traced jobs: the
/// operators' apply_count meters, the Profiler's level0 calls, SolveReport
/// batch counts, and the counting allocator.
struct LayerCounts {
  long rhs = 0;
  long fine_applies = 0;
  long coarse_applies = 0;
  long cycles = 0;
  AllocCounts alloc;
  double solve_seconds = 0;
  std::vector<double> outer_iters_max, matvecs, reductions, bicg_iters;
};

/// Runs one MG solve with the meters reset before and read after, when
/// `lc` is non-null (traced jobs); otherwise just the solve.
template <typename X, typename B>
SolveReport metered_solve(QmgContext& ctx, X& x, const B& b,
                          const SolveSpec& spec, LayerCounts* lc) {
  if (!lc) return ctx.solve(x, b, spec);
  const auto& mg = ctx.multigrid();
  ctx.op().reset_apply_count();
  ctx.op_single().reset_apply_count();
  mg.coarse_op(0).reset_apply_count();
  ctx.multigrid().reset_profile();
  reset_alloc_counts();
  set_alloc_counting(true);
  const auto t0 = Clock::now();
  SolveReport rep = ctx.solve(x, b, spec);
  const double wall = seconds_since(t0);
  set_alloc_counting(false);
  const AllocCounts ac = alloc_counts();
  lc->alloc.count += ac.count;
  lc->alloc.bytes += ac.bytes;
  lc->rhs += rep.nrhs;
  lc->fine_applies += ctx.op().apply_count() + ctx.op_single().apply_count();
  lc->coarse_applies += mg.coarse_op(0).apply_count();
  const auto prof = mg.profiler().entries();
  const auto it = prof.find("level0");
  // A level-0 call advances every rhs of the batch: count rhs-cycles.
  if (it != prof.end()) lc->cycles += it->second.calls * rep.nrhs;
  lc->solve_seconds += wall;
  lc->outer_iters_max.push_back(rep.max_iterations());
  long mv = rep.block_matvecs, red = rep.block_reductions;
  if (rep.nrhs == 1 && mv == 0) {  // single-rhs solve: a batch of one
    mv = rep.result().matvecs;
    red = rep.result().reductions;
  }
  lc->matvecs.push_back(static_cast<double>(mv));
  lc->reductions.push_back(static_cast<double>(red));
  return rep;
}

template <typename Fn>
double time_per_call(Fn&& fn, double budget = 0.25, int min_reps = 5,
                     int max_reps = 400) {
  fn();  // first call may tune; not timed
  std::vector<double> t;
  const auto start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps ||
         (seconds_since(start) < budget &&
          static_cast<int>(t.size()) < max_reps)) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

template <typename T>
BlockSpinor<T> gaussian_block(const ColorSpinorField<T>& proto, int nrhs,
                              std::uint64_t seed) {
  BlockSpinor<T> blk(proto.geometry(), proto.nspin(), proto.ncolor(), nrhs,
                     proto.subset());
  ColorSpinorField<T> f = proto;
  for (int k = 0; k < nrhs; ++k) {
    f.gaussian(seed + static_cast<std::uint64_t>(k));
    blk.insert_rhs(f, k);
  }
  return blk;
}

/// Computed (not measured) bytes of one single-precision Wilson-clover
/// apply per site: 8 links, the two 6x6 clover blocks, 8 neighbour spinors
/// plus the site's own, and the output spinor.  Cache reuse is ignored.
double wilson_bytes_per_site(Reconstruct links) {
  const double link_reals = links == Reconstruct::Full18 ? 18 : 12;
  return 8.0 * link_reals * sizeof(float) +
         2.0 * sizeof(CloverField<float>::Block) + 10.0 * 24 * sizeof(float);
}

/// Replays each layer's public call on the workload's own hierarchy and
/// turns the solve-time counts into per-layer metrics.  `block` selects
/// which per-call time the coverage estimate weighs the counts with.
void replay_layers(QmgContext& ctx, const LayerCounts& lc, bool block,
                   std::uint64_t seed, Metrics& m) {
  const auto& mg = ctx.multigrid();
  const auto& opf = ctx.op_single();
  const auto& coarse = mg.coarse_op(0);
  const auto& transfer = mg.transfer(0);
  const int nb = kPropagatorRhs;

  ColorSpinorField<float> in = opf.create_vector(), out = opf.create_vector();
  in.gaussian(seed);
  const auto bin = gaussian_block(in, nb, seed + 2);
  auto bout = bin.similar();

  const double t_dirac = time_per_call([&] { opf.apply(out, in); });
  const double t_dirac_blk =
      time_per_call([&] { opf.apply_block(bout, bin); }) / nb;
  const double vol = static_cast<double>(ctx.geometry()->volume());
  m["dirac.apply_s"] = {t_dirac, "s"};
  m["dirac.apply_block_s_per_rhs"] = {t_dirac_blk, "s"};
  m["dirac.gflops_per_s"] = {opf.flops_per_apply() / t_dirac / 1e9, "GFLOP/s"};
  m["dirac.gbytes_per_s_computed"] = {
      wilson_bytes_per_site(ctx.options().reconstruct) * vol / t_dirac / 1e9, "GB/s"};

  auto cin = coarse.create_vector(), cout = coarse.create_vector();
  cin.gaussian(seed + 4);
  const auto cbin = gaussian_block(cin, nb, seed + 5);
  auto cbout = cbin.similar();
  const double t_coarse = time_per_call([&] { coarse.apply(cout, cin); });
  const double t_coarse_blk =
      time_per_call([&] { coarse.apply_block(cbout, cbin); }) / nb;
  m["coarse.apply_s"] = {t_coarse, "s"};
  m["coarse.apply_block_s_per_rhs"] = {t_coarse_blk, "s"};
  m["coarse.gbytes_per_s_computed"] = {
      coarse.bytes_per_apply() / t_coarse / 1e9, "GB/s"};

  auto tc = transfer.create_coarse_vector();
  auto tf = transfer.create_fine_vector();
  auto tcb = transfer.create_coarse_block(nb);
  const double t_restrict =
      time_per_call([&] { transfer.restrict_to_coarse(tc, in); });
  const double t_prolong = time_per_call([&] { transfer.prolongate(tf, tc); });
  const double t_restrict_blk =
      time_per_call([&] { transfer.restrict_to_coarse(tcb, bin); }) / nb;
  const double t_prolong_blk =
      time_per_call([&] { transfer.prolongate(bout, tcb); }) / nb;
  m["transfer.restrict_s"] = {t_restrict, "s"};
  m["transfer.prolong_s"] = {t_prolong, "s"};
  m["transfer.restrict_block_s_per_rhs"] = {t_restrict_blk, "s"};
  m["transfer.prolong_block_s_per_rhs"] = {t_prolong_blk, "s"};

  m["mg.cycle_s"] = {time_per_call([&] { mg.cycle(0, out, in); }, 0.5, 3),
                     "s"};
  m["mg.cycle_block_s"] = {
      time_per_call([&] { mg.cycle_block(0, bout, bin); }, 0.5, 3), "s"};

  m["blas.norm2_s"] = {time_per_call([&] {
                         volatile double s = blas::norm2(in);
                         (void)s;
                       }),
                       "s"};
  m["blas.block_cdot_s_per_rhs"] = {
      time_per_call([&] {
        const auto d = blas::block_cdot(bin, bout);
        volatile double s = d.front().re;
        (void)s;
      }) / nb,
      "s"};

  const long ncoarse = cin.geometry()->volume();
  m["parallel.launch_s"] = {
      time_per_call([&] { parallel_for(ncoarse, [](long) {}); }, 0.1, 50),
      "s"};

  const double rhs = static_cast<double>(std::max(1L, lc.rhs));
  m["dirac.applies_per_rhs"] = {static_cast<double>(lc.fine_applies) / rhs,
                                "count"};
  m["coarse.applies_per_rhs"] = {static_cast<double>(lc.coarse_applies) / rhs,
                                 "count"};
  m["mg.cycles_per_rhs"] = {static_cast<double>(lc.cycles) / rhs, "count"};
  m["alloc.count_per_rhs"] = {static_cast<double>(lc.alloc.count) / rhs,
                              "count"};
  m["alloc.bytes_per_rhs"] = {static_cast<double>(lc.alloc.bytes) / rhs, "B"};
  m["solvers.outer_iters_max"] = {median(lc.outer_iters_max), "count"};
  m["solvers.block_matvecs"] = {median(lc.matvecs), "count"};
  m["solvers.block_reductions"] = {median(lc.reductions), "count"};

  // Coverage estimate: sum of (count x per-call replay time) over the
  // fine, coarse and transfer layers, against the measured solve wall
  // time.  Fine applies are weighed at the float cost (the K-cycle's
  // precision; the double outer applies cost more) and BLAS is left out:
  // an estimate, labelled as such.
  const double per_fine = block ? t_dirac_blk : t_dirac;
  const double per_coarse = block ? t_coarse_blk : t_coarse;
  const double per_transfer =
      block ? t_restrict_blk + t_prolong_blk : t_restrict + t_prolong;
  const double est = static_cast<double>(lc.fine_applies) * per_fine +
                     static_cast<double>(lc.coarse_applies) * per_coarse +
                     static_cast<double>(lc.cycles) * per_transfer;
  m["trace.coverage"] = {lc.solve_seconds > 0 ? est / lc.solve_seconds : 0,
                         "ratio"};
}

/// Communication and queue meters of a set of retired requests.  A batch's
/// CommStats ride on every rhs of the batch, so each report contributes
/// 1/batch_nrhs of its batch's traffic.
struct ServiceRecord {
  std::vector<double> latency, queue_wait, batch_solve, late;
  std::vector<double> outer_iters, matvecs, reductions;  // per batch report
  double drain = 0;
  double busy = 0;  // sum of batch solve time / batch rhs
  double coarse_messages = 0, messages = 0, bytes = 0, allreduces = 0,
         exposed = 0;
  long rhs = 0;
};

void record_report(ServiceRecord& rec, const SolveReport& rep) {
  const double share = 1.0 / std::max(1, rep.batch_nrhs);
  rec.messages += share * static_cast<double>(rep.comm.messages);
  rec.coarse_messages += share * static_cast<double>(rep.coarse_comm.messages);
  rec.bytes += share * static_cast<double>(rep.comm.message_bytes);
  rec.allreduces += share * static_cast<double>(rep.comm.allreduces);
  rec.exposed += share * rep.comm.exposed_exchange_seconds();
  rec.queue_wait.push_back(rep.queue_wait_seconds);
  rec.batch_solve.push_back(rep.seconds);
  rec.outer_iters.push_back(rep.max_iterations());
  rec.matvecs.push_back(static_cast<double>(rep.block_matvecs));
  rec.reductions.push_back(static_cast<double>(rep.block_reductions));
  rec.busy += share * rep.seconds;
  ++rec.rhs;
}

void service_layer_metrics(const ServiceRecord& rec, const QueueStats& st,
                           Metrics& m) {
  const double rhs = static_cast<double>(std::max(1L, rec.rhs));
  m["comm.messages_per_rhs"] = {rec.messages / rhs, "count"};
  m["comm.coarse_messages_per_rhs"] = {rec.coarse_messages / rhs, "count"};
  m["comm.kib_per_message"] = {
      rec.messages > 0 ? rec.bytes / rec.messages / 1024.0 : 0, "KiB"};
  m["comm.exposed_exchange_s"] = {rec.exposed / rhs, "s"};
  m["comm.allreduces_per_rhs"] = {rec.allreduces / rhs, "count"};
  m["service.batch_fill"] = {st.batch_fill, "ratio"};
  m["service.mean_batch_nrhs"] = {st.mean_batch_nrhs, "count"};
  m["service.queue_wait_p50_s"] = {median(rec.queue_wait), "s"};
  m["service.batch_solve_s"] = {median(rec.batch_solve), "s"};
  m["service.generator_late_s"] = {quantile(rec.late, 0.9), "s"};
  m["service.drain_s"] = {rec.drain, "s"};
}

QueueOptions queue_options() {
  QueueOptions q;
  q.max_nrhs = 8;
  q.max_wait_seconds = 0.02;
  return q;
}

SolveSpec service_spec() {
  SolveSpec s = mg_spec();
  s.nranks = 2;
  return s;
}

/// Replay of the service and comm layers on a job workload's own
/// context: a burst of four of its sources submitted at once to a
/// SolveQueue with the service spec (two virtual ranks).
void replay_service(QmgContext& ctx, const std::vector<Field>& sources,
                    Gate& gate, Metrics& m) {
  ServiceRecord rec;
  QueueStats st;
  ctx.multigrid().reset_coarsest_comm_stats();
  SolveQueue q(queue_options());
  q.add_tenant("replay", ctx);
  std::vector<SolveTicket> tickets;
  const auto t0 = Clock::now();
  for (size_t k = 0; k < 4 && k < sources.size(); ++k) {
    SolveRequest req;
    req.tenant = "replay";
    req.rhs = sources[k];
    req.spec = service_spec();
    rec.late.push_back(seconds_since(t0));
    tickets.push_back(q.submit(std::move(req)));
  }
  const auto last_submit = Clock::now();
  for (auto& t : tickets) t.wait();
  rec.drain = seconds_since(last_submit);
  q.stop();  // the dispatcher owns the thread pool until it has stopped
  st = q.stats();
  for (size_t k = 0; k < tickets.size(); ++k) {
    const auto& rep = tickets[k].report();
    verify(gate, ctx, tickets[k].solution(), sources[k], rep.result(),
           "replayed queue request " + std::to_string(k));
    record_report(rec, rep);
  }
  rec.allreduces += static_cast<double>(
      ctx.multigrid().coarsest_comm_stats().allreduces);
  service_layer_metrics(rec, st, m);
}

/// Replay of the gauge layer on a workload that does not stream: one
/// update_gauge to a correlated Markov step of the context's own
/// configuration.
void replay_gauge_update(QmgContext& ctx, std::uint64_t seed, Metrics& m) {
  GaugeStream::Params sp;
  sp.roughness = ctx.options().roughness;
  sp.seed = seed;
  sp.step = 0.2;
  GaugeStream stream(ctx.geometry(), sp);
  stream.advance();
  const auto t0 = Clock::now();
  const GaugeUpdateReport rep =
      ctx.update_gauge(stream.config_id(), stream.current());
  const double wall = seconds_since(t0);
  m["gauge.update.probe_s"] = {rep.probe_seconds, "s"};
  m["gauge.update.other_s"] = {
      wall - rep.timings.total_seconds() - rep.probe_seconds, "s"};
  m["gauge.update.escalations"] = {rep.escalated ? 1.0 : 0.0, "count"};
}

/// Saves the process-wide tune cache the run ended with and prints its
/// digest (FNV-1a 64 of the file) as a provenance line.
void save_tune_cache(const Args& a, const QmgContext& ctx) {
  if (a.tune_out.empty()) return;
  const bool ok = ctx.save_tune_cache(a.tune_out);
  std::uint64_t h = 1469598103934665603ULL;
  long bytes = 0;
  if (std::FILE* f = ok ? std::fopen(a.tune_out.c_str(), "rb") : nullptr) {
    int c;
    while ((c = std::fgetc(f)) != EOF) {
      h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ULL;
      ++bytes;
    }
    std::fclose(f);
  }
  std::printf(
      "tune_cache: {\"saved\": %s, \"path\": \"%s\", \"bytes\": %ld, "
      "\"fnv1a64\": \"%016llx\", \"kernel_entries\": %zu}\n",
      ok ? "true" : "false", a.tune_out.c_str(), bytes,
      static_cast<unsigned long long>(h), TuneCache::instance().size());
}

void add_self_times(const Tracer& tr, int traced_jobs, Metrics& m) {
  const auto self = tr.self_seconds();
  const double n = std::max(1, traced_jobs);
  auto get = [&](const std::string& k) {
    const auto it = self.find(k);
    return it == self.end() ? 0.0 : it->second / n;
  };
  m["trace.self.job_s"] = {get("job"), "s"};
  m["trace.self.context_s"] = {get("core.context"), "s"};
  m["trace.self.setup_s"] = {get("setup"), "s"};
  m["trace.self.solve_s"] = {get("solve"), "s"};
  m["trace.self.verify_s"] = {get("verify"), "s"};
}

// --- job workloads: propagator, sequential, stream -----------------------

/// One job's user-visible timings.
struct JobSample {
  double tts = 0;        // start -> last verified solution
  double setup = 0;      // setup_multigrid or update_gauge wall time
  double context = 0;    // QmgContext construction
  std::vector<double> solve_per_rhs;  // MG solve wall time / rhs
  std::vector<double> bicg_per_rhs;   // BiCGStab wall time / rhs
  SetupTimings phases;
  double probe = 0, update_other = 0;
  bool escalated = false;
};

struct JobEnv {
  const Args& a;
  Gate& gate;
  Tracer& tr;
  int job;
  LayerCounts* lc;   // non-null in traced jobs
  int max_iter = 0;  // solve iteration cap; 0 = the method default
};

// Iteration cap of an untraced run's warm-up job (job -1): enough to run,
// and so tune, every kernel the timed jobs use, well short of a solve.  A
// traced run's warm-up is a full job, since parallel.tune_s compares it
// with the timed ones.  Warm-up outputs are checked into a discarded gate.
constexpr int kWarmupIters = 2;

JobEnv job_env(const Args& a, Gate& gate, Gate& discard, Tracer& tr, int job,
               LayerCounts* lc) {
  const bool short_warmup = job < 0 && !a.trace;
  return {a, short_warmup ? discard : gate, tr, job, lc,
          short_warmup ? kWarmupIters : 0};
}

/// Closed loop: a warm-up job, then jobs back to back for about
/// args.seconds (at least `min_jobs`; a job starts while, at the previous
/// job's duration, it would end less than half a job past the window).
/// Traced runs alternate untraced and traced jobs so the tracing overhead
/// is measured in one process.
template <typename JobFn>
void closed_loop(const Args& a, Tracer& tr, JobFn&& run_job,
                 JobSample& warm, std::vector<JobSample>& timed,
                 std::vector<JobSample>& traced, LayerCounts& lc) {
  const bool tracing = a.trace;
  if (!a.smoke) {
    tr.set_enabled(false);
    const auto t0 = Clock::now();
    warm = run_job(-1, nullptr);
    std::fprintf(stderr, "perfbench: warm-up job %.3f s\n", seconds_since(t0));
  }
  const int min_jobs = a.smoke ? 1 : (tracing ? 4 : 3);
  const auto start = Clock::now();
  double last = 0;
  for (int k = 0;; ++k) {
    const bool traced_job = tracing && (a.smoke || k % 2 == 1);
    const int done = static_cast<int>(timed.size() + traced.size());
    if (done >= min_jobs && seconds_since(start) + last / 2 > a.seconds)
      break;
    tr.set_enabled(traced_job);
    const auto t0 = Clock::now();
    JobSample s = run_job(k, traced_job ? &lc : nullptr);
    last = seconds_since(t0);
    std::fprintf(stderr, "perfbench: job %d%s %.3f s (tts %.3f s)\n", k,
                 traced_job ? " traced" : "", last, s.tts);
    (traced_job ? traced : timed).push_back(std::move(s));
  }
  tr.set_enabled(tracing);
}

std::vector<double> collect(const std::vector<JobSample>& jobs,
                            double JobSample::*field) {
  std::vector<double> v;
  for (const auto& j : jobs) v.push_back(j.*field);
  return v;
}
std::vector<double> concat(const std::vector<JobSample>& jobs,
                           std::vector<double> JobSample::*field) {
  std::vector<double> v;
  for (const auto& j : jobs)
    v.insert(v.end(), (j.*field).begin(), (j.*field).end());
  return v;
}

void end_to_end(const std::vector<JobSample>& jobs, Metrics& m) {
  m["tts_s"] = {median(collect(jobs, &JobSample::tts)), "s"};
  m["setup_s"] = {median(collect(jobs, &JobSample::setup)), "s"};
  m["solve_s_per_rhs"] = {median(concat(jobs, &JobSample::solve_per_rhs)),
                          "s"};
  m["bicgstab_s_per_rhs"] = {median(concat(jobs, &JobSample::bicg_per_rhs)),
                             "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
}

/// Layer metrics taken from the traced jobs' own samples.
void job_layer_metrics(const std::vector<JobSample>& traced,
                       const std::vector<JobSample>& untraced,
                       const JobSample& warm, const LayerCounts& lc,
                       Metrics& m) {
  std::vector<double> ng, gk, ad, cx;
  for (const auto& j : traced) {
    ng.push_back(j.phases.null_gen_seconds);
    gk.push_back(j.phases.galerkin_seconds);
    ad.push_back(j.phases.adaptive_seconds);
    cx.push_back(j.context);
  }
  m["core.context_s"] = {median(cx), "s"};
  m["mg.setup.null_gen_s"] = {median(ng), "s"};
  m["mg.setup.galerkin_s"] = {median(gk), "s"};
  m["mg.setup.adaptive_s"] = {median(ad), "s"};
  m["bicgstab.iters_mean"] = {mean(lc.bicg_iters), "count"};
  const auto all = [&] {
    auto v = collect(untraced, &JobSample::tts);
    const auto w = collect(traced, &JobSample::tts);
    v.insert(v.end(), w.begin(), w.end());
    return v;
  }();
  m["parallel.tune_s"] = {warm.tts > 0 ? warm.tts - median(all) : 0, "s"};
  m["trace.overhead_s"] = {
      untraced.empty() ? 0
                       : median(collect(traced, &JobSample::tts)) -
                             median(collect(untraced, &JobSample::tts)),
      "s"};
}

/// BiCGStab yardstick: one rhs by the mixed-precision BiCGStab baseline,
/// verified, outside the job's time to solution.
void bicgstab_yardstick(JobEnv& e, QmgContext& ctx, const Field& b,
                        JobSample& s) {
  const ScopedSpan span(e.tr, "bicgstab", e.job);
  Field x = ctx.create_vector();
  const auto t0 = Clock::now();
  const SolveReport rep = ctx.solve(x, b, bicgstab_spec(e.max_iter));
  s.bicg_per_rhs.push_back(seconds_since(t0));
  if (e.lc) e.lc->bicg_iters.push_back(rep.result().iterations);
  verify(e.gate, ctx, x, b, rep.result(), "bicgstab job " +
                                              std::to_string(e.job));
}

/// Block-solves the 12 point sources and verifies each column.
void block_propagator(JobEnv& e, QmgContext& ctx, const std::vector<Field>& b,
                      long site, JobSample& s) {
  auto x = zeros(ctx, b.size());
  SolveReport rep;
  {
    const ScopedSpan span(e.tr, "solve", e.job);
    const auto t0 = Clock::now();
    rep = metered_solve(ctx, x, b, mg_spec(e.max_iter), e.lc);
    s.solve_per_rhs.push_back(seconds_since(t0) /
                              static_cast<double>(b.size()));
  }
  {
    const ScopedSpan span(e.tr, "verify", e.job);
    for (size_t k = 0; k < b.size(); ++k)
      verify(e.gate, ctx, x[k], b[k], rep.rhs[k],
             "job " + std::to_string(e.job) + " rhs " + std::to_string(k));
    check_correlator(e.gate, ctx, x, site);
  }
}

/// Builds a fresh context and hierarchy, timing both.
std::unique_ptr<QmgContext> fresh_context(JobEnv& e, const Coord& dims,
                                          JobSample& s) {
  std::unique_ptr<QmgContext> ctx;
  {
    const ScopedSpan span(e.tr, "core.context", e.job);
    const auto t0 = Clock::now();
    ctx = std::make_unique<QmgContext>(problem_options(e.a, dims));
    s.context = seconds_since(t0);
  }
  {
    const ScopedSpan span(e.tr, "setup", e.job);
    const auto t0 = Clock::now();
    ctx->setup_multigrid(mg_config(e.a));
    s.setup = seconds_since(t0);
  }
  s.phases = ctx->multigrid().setup_timings();
  return ctx;
}

long random_site(std::mt19937_64& rng, const QmgContext& ctx) {
  return static_cast<long>(rng() %
                           static_cast<std::uint64_t>(ctx.geometry()->volume()));
}

/// Shared tail of the job workloads: metrics, replays, trace files.
void finish_closed_loop(const Args& a, Gate& gate, Tracer& tr, Metrics& m,
                        QmgContext& ctx, const std::vector<Field>& sources,
                        const JobSample& warm,
                        const std::vector<JobSample>& timed,
                        const std::vector<JobSample>& traced,
                        const LayerCounts& lc, bool block, bool has_update) {
  end_to_end(timed.empty() ? traced : timed, m);
  if (!a.trace) {
    save_tune_cache(a, ctx);
    return;
  }
  job_layer_metrics(traced, timed, warm, lc, m);
  add_self_times(tr, static_cast<int>(traced.size()), m);
  replay_layers(ctx, lc, block, a.seed, m);
  replay_service(ctx, sources, gate, m);
  if (!has_update) replay_gauge_update(ctx, a.seed, m);
  save_tune_cache(a, ctx);
}

void run_propagator(const Args& a, Gate& gate, Tracer& tr, Metrics& m) {
  std::mt19937_64 rng(a.seed);
  std::unique_ptr<QmgContext> ctx;
  std::vector<Field> sources;
  LayerCounts lc;
  auto job = [&](int k, LayerCounts* lcp) {
    Gate discard;
    JobEnv e = job_env(a, gate, discard, tr, k, lcp);
    JobSample s;
    const ScopedSpan span(tr, "job", k);
    ctx.reset();  // the previous job's context is freed first
    const auto t0 = Clock::now();
    ctx = fresh_context(e, fine_dims(a), s);
    const long site = random_site(rng, *ctx);
    sources = point_sources(*ctx, site);
    block_propagator(e, *ctx, sources, site, s);
    s.tts = seconds_since(t0);
    for (int i = 0; i < kYardstickRhs; ++i)
      bicgstab_yardstick(e, *ctx, sources[static_cast<size_t>(i)], s);
    return s;
  };
  JobSample warm;
  std::vector<JobSample> timed, traced;
  closed_loop(a, tr, job, warm, timed, traced, lc);
  finish_closed_loop(a, gate, tr, m, *ctx, sources, warm, timed, traced, lc,
                     /*block=*/true, /*has_update=*/false);
}

void run_sequential(const Args& a, Gate& gate, Tracer& tr, Metrics& m) {
  std::mt19937_64 rng(a.seed);
  std::unique_ptr<QmgContext> ctx;
  std::vector<Field> sources;
  LayerCounts lc;
  auto job = [&](int k, LayerCounts* lcp) {
    Gate discard;
    JobEnv e = job_env(a, gate, discard, tr, k, lcp);
    JobSample s;
    const ScopedSpan span(tr, "job", k);
    ctx.reset();
    const auto t0 = Clock::now();
    ctx = fresh_context(e, fine_dims(a), s);
    const long site = random_site(rng, *ctx);
    sources = point_sources(*ctx, site);
    std::vector<Field> x = zeros(*ctx, sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      SolveReport rep;
      {
        const ScopedSpan solve(tr, "solve", k);
        const auto ts = Clock::now();
        rep = metered_solve(*ctx, x[i], sources[i], mg_spec(e.max_iter),
                            lcp);
        s.solve_per_rhs.push_back(seconds_since(ts));
      }
      const ScopedSpan v(tr, "verify", k);
      verify(e.gate, *ctx, x[i], sources[i], rep.result(),
             "job " + std::to_string(k) + " rhs " + std::to_string(i));
    }
    {
      const ScopedSpan v(tr, "verify", k);
      check_correlator(e.gate, *ctx, x, site);
    }
    s.tts = seconds_since(t0);
    for (const auto& b : sources) bicgstab_yardstick(e, *ctx, b, s);
    return s;
  };
  JobSample warm;
  std::vector<JobSample> timed, traced;
  closed_loop(a, tr, job, warm, timed, traced, lc);
  finish_closed_loop(a, gate, tr, m, *ctx, sources, warm, timed, traced, lc,
                     /*block=*/false, /*has_update=*/false);
}

void run_stream(const Args& a, Gate& gate, Tracer& tr, Metrics& m) {
  std::mt19937_64 rng(a.seed);
  tr.set_enabled(a.trace);
  JobSample prelude;
  LayerCounts lc;
  JobEnv e0{a, gate, tr, -1, nullptr};
  std::unique_ptr<QmgContext> ctx = fresh_context(e0, fine_dims(a), prelude);
  GaugeStream::Params sp;
  sp.roughness = ctx->options().roughness;
  sp.seed = kEnsembleSeed;  // the stream is part of the fixed ensemble
  sp.step = 0.2;
  GaugeStream stream(ctx->geometry(), sp);
  std::vector<Field> sources;

  auto job = [&](int k, LayerCounts* lcp) {
    Gate discard;
    JobEnv e = job_env(a, gate, discard, tr, k, lcp);
    JobSample s;
    stream.advance();  // the ensemble producer; not the solver's time
    const ScopedSpan span(tr, "job", k);
    const auto t0 = Clock::now();
    {
      const ScopedSpan u(tr, "setup", k);
      const GaugeUpdateReport rep =
          ctx->update_gauge(stream.config_id(), stream.current());
      s.setup = seconds_since(t0);
      s.phases = rep.timings;
      s.probe = rep.probe_seconds;
      s.update_other = s.setup - rep.timings.total_seconds() - rep.probe_seconds;
      s.escalated = rep.escalated;
      e.gate.require(rep.hierarchy_updated,
                     "update_gauge left the hierarchy stale");
    }
    const long site = random_site(rng, *ctx);
    sources = point_sources(*ctx, site);
    block_propagator(e, *ctx, sources, site, s);
    s.tts = seconds_since(t0);
    for (int i = 0; i < kYardstickRhs; ++i)
      bicgstab_yardstick(e, *ctx, sources[static_cast<size_t>(i)], s);
    return s;
  };
  JobSample warm;
  std::vector<JobSample> timed, traced;
  closed_loop(a, tr, job, warm, timed, traced, lc);
  if (a.trace) {
    std::vector<double> probe, other;
    double esc = 0;
    for (const auto& j : traced) {
      probe.push_back(j.probe);
      other.push_back(j.update_other);
      esc += j.escalated ? 1 : 0;
    }
    m["gauge.update.probe_s"] = {median(probe), "s"};
    m["gauge.update.other_s"] = {median(other), "s"};
    m["gauge.update.escalations"] = {esc, "count"};
  }
  finish_closed_loop(a, gate, tr, m, *ctx, sources, warm, timed, traced, lc,
                     /*block=*/true, /*has_update=*/true);
  if (a.trace) m["core.context_s"] = {prelude.context, "s"};
}

// --- service workload ----------------------------------------------------

// The service's callers: kServiceClients independent clients, each sending
// one single-rhs request, waiting for its reply, then thinking for an
// exponential time (mean kThinkSeconds) before the next -- a closed loop of
// about 6 requests/s on this problem, below the queue's saturation, with
// concurrent clients sharing batches.  (An open loop at that rate was not
// steady on a shared 4-vCPU host: a few seconds of host contention turned
// into a queue backlog that multiplied the tail latency of whole runs.)
constexpr int kServiceClients = 4;
constexpr double kThinkSeconds = 0.5;
constexpr double kServiceRate = 6.0;  // nominal requests/s: sets the count
constexpr int kServiceSetups = 7;
// Requests re-solved directly (bitwise check, direct MG and BiCGStab
// timings).
constexpr int kDirectSample = 24;

/// The i-th request's right-hand side, regenerated where it is needed
/// instead of being held for the whole run.
Field request_rhs(const Field& proto, std::uint64_t seed, size_t i) {
  Field b = proto;
  b.gaussian(seed * 1000003ULL + i);
  return b;
}

struct ServiceLoopResult {
  ServiceRecord rec;
  QueueStats stats;
  std::vector<Field> solutions;
  std::vector<SolveReport> reports;
};

/// Runs kServiceRate x `window` requests through a SolveQueue from
/// kServiceClients client threads (client c sends requests c, c + clients,
/// ...).  Latency runs from submit to retire.  Each solution is copied into
/// storage allocated up front and its ticket released.  No other thread may
/// run the context's kernels while the queue is live (the dispatcher owns
/// the thread pool), so the caller verifies afterwards.
ServiceLoopResult client_loop(QmgContext& ctx, double window,
                              std::uint64_t seed, Tracer& tr, int job) {
  ServiceLoopResult out;
  const auto n = static_cast<size_t>(std::max(1.0, window * kServiceRate));
  const Field proto = ctx.create_vector();
  out.solutions.assign(n, proto);
  out.reports.resize(n);
  out.rec.latency.resize(n);
  out.rec.late.resize(n);
  std::vector<double> sent_at(n), retired_at(n);

  SolveQueue q(queue_options());
  q.add_tenant("svc", ctx);
  std::mutex m;
  std::string error;  // guarded by m: first client failure
  const ScopedSpan window_span(tr, "solve", job);
  const auto start = Clock::now();
  // Each client writes only the elements of its own requests.
  auto client = [&](int c) {
    try {
      std::mt19937_64 rng(seed * 7919ULL + static_cast<std::uint64_t>(c));
      std::exponential_distribution<double> think(1.0 / kThinkSeconds);
      for (size_t i = static_cast<size_t>(c); i < n; i += kServiceClients) {
        const auto wake = Clock::now() +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(think(rng)));
        SolveRequest req;
        req.tenant = "svc";
        req.rhs = request_rhs(proto, seed, i);
        req.spec = service_spec();
        std::this_thread::sleep_until(wake);
        const auto sent = Clock::now();
        out.rec.late[i] = std::chrono::duration<double>(sent - wake).count();
        SolveTicket t;
        {
          const ScopedSpan s(tr, "service.submit", job);
          t = q.submit(std::move(req));
        }
        {
          const ScopedSpan s(tr, "service.wait", job);
          t.wait();
        }
        const auto done = Clock::now();
        out.rec.latency[i] = std::chrono::duration<double>(done - sent).count();
        sent_at[i] = std::chrono::duration<double>(sent - start).count();
        retired_at[i] = std::chrono::duration<double>(done - start).count();
        const Field& x = t.solution();
        std::memcpy(out.solutions[i].data(), x.data(),
                    static_cast<size_t>(x.size()) * sizeof(x.data()[0]));
        out.reports[i] = t.report();
      }
    } catch (const std::exception& ex) {
      const std::lock_guard<std::mutex> lk(m);
      if (error.empty()) error = ex.what();
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kServiceClients; ++c) clients.emplace_back(client, c);
  for (auto& th : clients) th.join();
  q.stop();
  if (!error.empty()) throw std::runtime_error("service client: " + error);
  out.stats = q.stats();
  out.rec.drain = *std::max_element(retired_at.begin(), retired_at.end()) -
                  *std::max_element(sent_at.begin(), sent_at.end());
  for (const auto& rep : out.reports) record_report(out.rec, rep);
  return out;
}

/// Verifies every request of a client loop by its true residual.
void verify_requests(Gate& gate, const QmgContext& ctx,
                     const ServiceLoopResult& r, std::uint64_t seed) {
  const Field proto = ctx.create_vector();
  for (size_t i = 0; i < r.reports.size(); ++i)
    verify(gate, ctx, r.solutions[i], request_rhs(proto, seed, i),
           r.reports[i].result(), "request " + std::to_string(i));
}

void run_service(const Args& a, Gate& gate, Tracer& tr, Metrics& m) {
  tr.set_enabled(a.trace);
  const ScopedSpan job_span(tr, "job", 0);
  std::unique_ptr<QmgContext> ctx;
  double context_s = 0;
  {
    const ScopedSpan span(tr, "core.context", 0);
    const auto t0 = Clock::now();
    ctx = std::make_unique<QmgContext>(problem_options(a, service_dims(a)));
    context_s = seconds_since(t0);
  }
  std::vector<double> setups;
  for (int i = 0; i < (a.smoke ? 1 : kServiceSetups); ++i) {
    const ScopedSpan span(tr, "setup", 0);
    const auto t0 = Clock::now();
    ctx->setup_multigrid(mg_config(a));
    setups.push_back(seconds_since(t0));
  }
  const SetupTimings phases = ctx->multigrid().setup_timings();

  // Warm-up: one burst of each batch width, so every width's kernels are
  // tuned before the client loop (twice in a traced run: the difference is
  // the tuning cost).  Then the coarse kernel config is pinned, the
  // precondition of the queued == direct bitwise contract.
  auto warm_sweep = [&](std::uint64_t base) {
    const auto t0 = Clock::now();
    SolveQueue q(queue_options());
    q.add_tenant("svc", *ctx);
    for (int w = 1; w <= 8; ++w) {
      std::vector<SolveTicket> ts;
      for (int k = 0; k < w; ++k) {
        SolveRequest req;
        req.tenant = "svc";
        req.rhs = ctx->create_vector();
        req.rhs.gaussian(base + static_cast<std::uint64_t>(10 * w + k));
        req.spec = service_spec();
        ts.push_back(q.submit(std::move(req)));
      }
      q.flush();
      for (auto& t : ts) t.wait();
    }
    q.stop();
    return seconds_since(t0);
  };
  tr.set_enabled(false);
  const double sweep1 = a.smoke ? 0 : warm_sweep(a.seed * 7919ULL);
  const double sweep2 = a.trace && !a.smoke ? warm_sweep(a.seed * 7927ULL) : 0;
  tr.set_enabled(a.trace);
  ctx->multigrid().coarse_op_mutable(0).set_kernel_config(
      ctx->multigrid().coarse_op(0).kernel_config());

  // The client loop.  A traced run splits it: an untraced half and a
  // traced half, so the overhead is measured in one process.
  const double window = a.smoke ? 1.0 : (a.trace ? a.seconds / 2 : a.seconds);
  LayerCounts lc;
  ServiceLoopResult untraced_half;
  if (a.trace) {
    tr.set_enabled(false);
    untraced_half = client_loop(*ctx, window, a.seed + 17, tr, 0);
    verify_requests(gate, *ctx, untraced_half, a.seed + 17);
    untraced_half.solutions.clear();
    tr.set_enabled(true);
    ctx->op().reset_apply_count();
    ctx->op_single().reset_apply_count();
    ctx->multigrid().coarse_op(0).reset_apply_count();
    ctx->multigrid().reset_profile();
    ctx->multigrid().reset_coarsest_comm_stats();
    reset_alloc_counts();
    set_alloc_counting(true);
  }
  ServiceLoopResult r = client_loop(*ctx, window, a.seed, tr, 0);
  if (a.trace) {
    set_alloc_counting(false);
    r.rec.allreduces += static_cast<double>(
        ctx->multigrid().coarsest_comm_stats().allreduces);
    lc.alloc = alloc_counts();
    lc.rhs = r.rec.rhs;
    lc.fine_applies = ctx->op().apply_count() + ctx->op_single().apply_count();
    lc.coarse_applies = ctx->multigrid().coarse_op(0).apply_count();
    const auto prof = ctx->multigrid().profiler().entries();
    const auto it = prof.find("level0");
    if (it != prof.end())
      lc.cycles = std::lround(static_cast<double>(it->second.calls) *
                              r.stats.mean_batch_nrhs);
    lc.outer_iters_max = r.rec.outer_iters;
    lc.matvecs = r.rec.matvecs;
    lc.reductions = r.rec.reductions;
    lc.solve_seconds = r.rec.busy;
  }

  // Every request by its true residual; then a sample re-solved directly
  // must match its queued solution bit for bit (the queued == direct
  // contract), and the same rhs give the direct MG and BiCGStab timings.
  {
    const ScopedSpan span(tr, "verify", 0);
    verify_requests(gate, *ctx, r, a.seed);
  }
  const Field proto = ctx->create_vector();
  std::mt19937_64 pick(a.seed ^ 0x5eedULL);
  std::vector<double> direct_mg, bicg;
  for (int k = 0; k < kDirectSample; ++k) {
    const size_t i = pick() % r.reports.size();
    const Field b = request_rhs(proto, a.seed, i);
    Field x = ctx->create_vector();
    {
      const ScopedSpan span(tr, "verify", 0);
      const auto t0 = Clock::now();
      const SolveReport direct = ctx->solve(x, b, service_spec());
      direct_mg.push_back(seconds_since(t0));
      gate.check(direct.all_converged() &&
                     bits_equal(x, r.solutions[i]),
                 "request " + std::to_string(i) +
                     " differs bitwise from its direct solve");
    }
    const ScopedSpan span(tr, "bicgstab", 0);
    Field y = ctx->create_vector();
    const auto t0 = Clock::now();
    const SolveReport rb = ctx->solve(y, b, bicgstab_spec());
    bicg.push_back(seconds_since(t0));
    lc.bicg_iters.push_back(rb.result().iterations);
    verify(gate, *ctx, y, b, rb.result(),
           "bicgstab request " + std::to_string(i));
  }

  m["tts_s"] = {mean(r.rec.latency), "s"};
  m["setup_s"] = {median(setups), "s"};
  m["solve_s_per_rhs"] = {median(direct_mg), "s"};
  m["bicgstab_s_per_rhs"] = {median(bicg), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  std::printf("service: %zu requests, %ld batches, mean batch %.2f rhs\n",
              r.reports.size(), r.stats.batches, r.stats.mean_batch_nrhs);
  if (!a.trace) {
    save_tune_cache(a, *ctx);
    return;
  }

  service_layer_metrics(r.rec, r.stats, m);
  m["core.context_s"] = {context_s, "s"};
  m["mg.setup.null_gen_s"] = {phases.null_gen_seconds, "s"};
  m["mg.setup.galerkin_s"] = {phases.galerkin_seconds, "s"};
  m["mg.setup.adaptive_s"] = {phases.adaptive_seconds, "s"};
  m["bicgstab.iters_mean"] = {mean(lc.bicg_iters), "count"};
  m["parallel.tune_s"] = {sweep1 - sweep2, "s"};
  m["trace.overhead_s"] = {
      mean(r.rec.latency) - mean(untraced_half.rec.latency), "s"};
  replay_layers(*ctx, lc, /*block=*/true, a.seed, m);
  add_self_times(tr, 1, m);
  replay_gauge_update(*ctx, a.seed, m);
  save_tune_cache(a, *ctx);
}

}  // namespace

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> w = {
      {"propagator", run_propagator},
      {"sequential", run_sequential},
      {"stream", run_stream},
      {"service", run_service},
  };
  return w;
}

}  // namespace perfbench
