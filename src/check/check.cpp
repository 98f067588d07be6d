#include "check/check.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "core/dimensioning.h"
#include "core/mixed_population.h"
#include "core/rtt_model.h"
#include "core/sweep.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "queueing/giek1.h"
#include "queueing/mg1_erlang_service.h"
#include "queueing/tail_kernel.h"
#include "reference/convolution.h"
#include "reference/validation.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "sim/replication.h"

namespace fpsq::check {

namespace {

// Tolerance ladder (rationale per pair in docs/CHECKING.md). Each
// comparison passes when |a - b| <= abs + rel * max(|a|, |b|).
constexpr double kMgfAbs = 1e-9;  // kernel vs pole-sum: same poles,
constexpr double kMgfRel = 1e-7;  // different summation order
constexpr double kOracleAbs = 1e-9;  // closed form vs adaptive
constexpr double kOracleRel = 1e-6;  // quadrature at tolerance 1e-12
constexpr double kRoundTripRel = 1e-6;   // tail(quantile(eps)) vs eps,
constexpr double kRoundTripAbs = 1e-12;  // scaled by eps itself
constexpr double kBoundRel = 1e-9;    // one-sided quantile relations:
constexpr double kBoundAbsMs = 1e-9;  // rounding slack (1e-12 s)
/// Relative gamer-count step of the load-monotonicity relation.
constexpr double kLoadStep = 1e-3;
/// Width of dimension_for_rtt's final load bracket.
constexpr double kRhoBracket = 1e-4;
/// Bound growth of the dimensioning monotonicity relation.
constexpr double kBoundGrowth = 1.1;
/// Load step of the sweep-grid relation (the grid of `fpsq sweep
/// --step 0.1`: loads 0.1 .. 0.9).
constexpr double kSweepStep = 0.1;
/// M/E_K/1 two ways: the atom (a probability; 1 - sum Re c_j carries
/// the residues' rounding, up to 3.2e-10 at rho 0.995 on seeds 1-3) and
/// the quantile (up to 2.7e-10 relative), whose absolute slack is in
/// ticks (a quantile just above zero, where rho ~ eps, moves by the
/// tail's rounding over its density).
constexpr double kMek1AtomAbs = 2e-9;
constexpr double kMek1Rel = 3e-9;
constexpr double kMek1AbsTicks = 1e-12;
/// Mixed population split in two identical halves: the same dominant
/// pole up to rounding (7.7e-16 relative on seeds 1-3).
constexpr double kSplitRel = 1e-12;
constexpr double kSplitAbsMs = 1e-12;

/// Tail abscissae probed per law, as multiples of the mean: body,
/// shoulder, and deep tail where the pole expansions disagree first.
constexpr double kTailMultipliers[] = {0.25, 0.7, 1.5, 3.0, 6.0, 12.0};

void append_g(std::string& out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %s=%.17g", key, v);
  out += buf;
}

std::string describe(const CheckPoint& p) {
  std::string d = "k=" + std::to_string(p.scenario.erlang_k);
  append_g(d, "rho_d", p.rho_down);
  append_g(d, "n", p.n_clients);
  append_g(d, "tick_ms", p.scenario.tick_ms);
  append_g(d, "ps", p.scenario.server_packet_bytes);
  append_g(d, "pc", p.scenario.client_packet_bytes);
  append_g(d, "c", p.scenario.bottleneck_bps);
  append_g(d, "jitter", p.scenario.tick_jitter_cov);
  append_g(d, "eps", p.epsilon);
  return d;
}

/// Solver rejections that are legitimate corpus holes (nothing to
/// compare) rather than findings.
bool corpus_hole(err::SolverErrorCode code) {
  return code == err::SolverErrorCode::kBadParameters ||
         code == err::SolverErrorCode::kUnstable ||
         code == err::SolverErrorCode::kPoleClash;
}

/// Everything one corpus point produces; aggregated in index order by
/// run_check so the report is independent of evaluation interleaving.
struct PointOutcome {
  std::size_t comparisons = 0;
  bool skipped = false;
  std::vector<Mismatch> mismatches;
};

/// Per-point evaluation state: holds the sampled point plus options and
/// accumulates comparisons/mismatches into a PointOutcome.
class PointChecker {
 public:
  PointChecker(const CheckPoint& p, const CheckOptions& opt)
      : p_(p), opt_(opt) {}

  [[nodiscard]] PointOutcome take() && { return std::move(out_); }

  /// Two-sided numeric comparison; `a` is the side under test (the
  /// self-test perturbation applies to it), `b` the reference.
  void compare(PathPair pair, const std::string& what, double a, double b,
               double tol_abs, double tol_rel) {
    ++out_.comparisons;
    a += opt_.perturb;
    const double abs_err = std::abs(a - b);
    const double mag = std::max(std::abs(a), std::abs(b));
    const double tol = tol_abs + tol_rel * mag;
    // NaN on either side makes abs_err NaN, which fails this test — a
    // NaN-poisoned path is a mismatch, never a silent pass.
    if (abs_err <= tol) return;
    Mismatch m = base_mismatch(pair);
    m.abs_error = abs_err;
    m.rel_error = mag > 0.0 ? abs_err / mag : abs_err;
    m.tolerance = tol;
    m.detail = describe(p_) + " " + what;
    append_g(m.detail, "a", a);
    append_g(m.detail, "b", b);
    out_.mismatches.push_back(std::move(m));
  }

  /// Property check: quantile(eps) then tail back. A zero quantile is
  /// only legal when the whole tail already sits at or below eps (the
  /// atom guard); otherwise the tail must land back on eps.
  template <typename TailFn, typename QuantFn>
  void round_trip(const char* law, const TailFn& tail,
                  const QuantFn& quantile, double eps) {
    ++out_.comparisons;
    double q = 0.0;
    try {
      q = quantile(eps);
    } catch (const err::SolverFailure& e) {
      solver_mismatch(e.error(), law, eps);
      return;
    }
    const double tol = eps * kRoundTripRel + kRoundTripAbs;
    std::string what = std::string(law) + "_round_trip";
    if (q == 0.0) {
      const double t0 = tail(0.0) + opt_.perturb;
      if (t0 <= eps + tol) return;
      Mismatch m = base_mismatch(PathPair::kRoundTrip);
      m.abs_error = t0 - eps;
      m.rel_error = (t0 - eps) / eps;
      m.tolerance = tol;
      m.detail = describe(p_) + " " + what + " q=0 (atom guard)";
      append_g(m.detail, "tail0", t0);
      append_g(m.detail, "target", eps);
      out_.mismatches.push_back(std::move(m));
      return;
    }
    const double t = tail(q) + opt_.perturb;
    const double abs_err = std::abs(t - eps);
    if (abs_err <= tol) return;
    Mismatch m = base_mismatch(PathPair::kRoundTrip);
    m.abs_error = abs_err;
    m.rel_error = abs_err / eps;
    m.tolerance = tol;
    m.detail = describe(p_) + " " + what;
    append_g(m.detail, "q", q);
    append_g(m.detail, "tail_q", t);
    append_g(m.detail, "target", eps);
    out_.mismatches.push_back(std::move(m));
  }

  /// Gate for solver factory failures: parameter/stability/pole-clash
  /// rejections are legitimate corpus holes (skipped); numeric failures
  /// on an admissible point are findings.
  void solver_gate(const err::SolverError& e, const char* where) {
    if (corpus_hole(e.code)) {
      out_.skipped = true;
      return;
    }
    solver_mismatch(e, where, p_.epsilon);
  }

  void solver_mismatch(const err::SolverError& e, const char* where,
                       double eps) {
    Mismatch m = base_mismatch(PathPair::kSolverHealth);
    m.detail = describe(p_) + " " + where + " failed: " + e.message();
    append_g(m.detail, "target", eps);
    out_.mismatches.push_back(std::move(m));
  }

  /// Burst-wait law paths on the point's own tick law (D/E_K/1, or
  /// GI/E_K/1 when ticks jitter, as core::RttModel builds it): compiled
  /// TailKernel vs the direct pole-sum tails, plus inversion round trips
  /// (including the rho -> 0 atom regime where every quantile must be
  /// exactly 0).
  void check_law() {
    const double period_s = p_.scenario.tick_ms * 1e-3;
    auto law = queueing::GiEk1Solver::create(p_.scenario.erlang_k,
                                             p_.rho_down * period_s,
                                             core::tick_arrivals(p_.scenario));
    if (!law) {
      solver_gate(law.error(), "burst_wait_law");
      return;
    }
    const auto& mgf = law.value().waiting_mgf();
    const queueing::TailKernel kernel(mgf);
    const double scale = law.value().mean_wait();
    const bool atom_only = law.value().p_wait_zero() >= 1.0 - 1e-12;
    if (scale > 0.0 && !atom_only) {
      for (const double mult : kTailMultipliers) {
        const double x = mult * scale;
        std::string what = "law_tail";
        append_g(what, "x", x);
        compare(PathPair::kKernelVsMgf, what, kernel.tail(x), mgf.tail(x),
                kMgfAbs, kMgfRel);
      }
    }
    const auto tail = [&kernel](double x) { return kernel.tail(x); };
    const auto quant = [&kernel](double e) { return kernel.quantile(e); };
    for (const double eps : {p_.epsilon, 1e-3, 1e-7}) {
      round_trip("law", tail, quant, eps);
    }
    // The solver's own quantile path (invert_tail_newton over the raw
    // MGF tail) must agree with the kernel's compiled inversion.
    const auto solver_quant = [&law](double e) {
      return law.value().wait_quantile(e);
    };
    ++out_.comparisons;
    try {
      const double qk = quant(p_.epsilon);
      const double qs = solver_quant(p_.epsilon);
      const double mag = std::max(std::abs(qk), std::abs(qs));
      if (!(std::abs(qk - qs) <= kRoundTripAbs + 1e-6 * mag)) {
        Mismatch m = base_mismatch(PathPair::kKernelVsMgf);
        m.abs_error = std::abs(qk - qs);
        m.rel_error = mag > 0.0 ? m.abs_error / mag : m.abs_error;
        m.tolerance = kRoundTripAbs + 1e-6 * mag;
        m.detail = describe(p_) + " law_quantile";
        append_g(m.detail, "kernel", qk);
        append_g(m.detail, "solver", qs);
        out_.mismatches.push_back(std::move(m));
      }
    } catch (const err::SolverFailure& e) {
      solver_mismatch(e.error(), "law_quantile", p_.epsilon);
    }
  }

  /// Combined-model paths (needs K >= 2): the compiled total/downstream
  /// kernels vs the adaptive-quadrature convolution oracle, plus
  /// round trips on the total kernel down to eps = 1e-7.
  void check_model() {
    if (p_.scenario.erlang_k < 2) return;
    auto model = core::RttModel::create(p_.scenario, p_.n_clients);
    if (!model) {
      solver_gate(model.error(), "rtt_model");
      return;
    }
    const core::RttModel& m = model.value();
    const auto& upstream = m.upstream_burst_mgf();
    const auto& position = m.position_mixture();

    const double floor_s = 1e-4 * p_.scenario.tick_ms * 1e-3;
    const queueing::TailKernel* total = m.total_kernel();
    for (const double mult : kTailMultipliers) {
      const double x = mult * std::max(total->mean(), floor_s);
      std::string what = "total_tail";
      append_g(what, "x", x);
      compare(PathPair::kKernelVsOracle, what, total->tail(x),
              queueing::convolved_tail(upstream, position, x),
              kOracleAbs, kOracleRel);
    }
    const auto tail = [total](double x) { return total->tail(x); };
    const auto quant = [total](double e) { return total->quantile(e); };
    for (const double eps : {p_.epsilon, 1e-2, 1e-5, 1e-7}) {
      round_trip("total", tail, quant, eps);
    }
    // Probe the oracle at the kernel's own quantile: the abscissa the
    // paper's dimensioning answers actually depend on.
    try {
      const double q = total->quantile(p_.epsilon);
      if (q > 0.0) {
        compare(PathPair::kKernelVsOracle, "total_tail_at_quantile",
                total->tail(q),
                queueing::convolved_tail(upstream, position, q),
                kOracleAbs, kOracleRel);
      }
    } catch (const err::SolverFailure& e) {
      solver_mismatch(e.error(), "total_quantile", p_.epsilon);
    }

    check_breakdown(m);
    check_load_monotone(m);
    check_dimension(m);

    const queueing::TailKernel down = m.downstream_kernel();
    for (const double mult : {0.5, 2.0, 8.0}) {
      const double x = mult * std::max(down.mean(), floor_s);
      const double oracle =
          m.burst_wait_dropped()
              ? position.tail(x)
              : queueing::convolved_tail(m.burst_wait_mgf(), position,
                                         x);
      std::string what = "down_tail";
      append_g(what, "x", x);
      compare(PathPair::kKernelVsOracle, what, down.tail(x), oracle,
              kOracleAbs, kOracleRel);
    }
  }

  /// Relations the paper's decomposition implies between the total
  /// stochastic quantile and the breakdown's component quantiles (D_u
  /// and W through ErlangMixMgf::quantile, P through
  /// ErlangMixture::quantile): the total dominates every component, the
  /// union bound caps it by the components at eps/3, and it grows as
  /// eps shrinks.
  void check_breakdown(const core::RttModel& m) {
    const double eps = p_.epsilon;
    core::RttModel::Breakdown b;
    core::RttModel::Breakdown b3;
    try {
      b = m.breakdown_ms(eps);
      b3 = m.breakdown_ms(eps / 3.0);
    } catch (const err::SolverFailure& e) {
      solver_mismatch(e.error(), "breakdown", eps);
      return;
    }
    const double total = b.total_ms - b.deterministic_ms;
    const double total3 = b3.total_ms - b3.deterministic_ms;
    constexpr PathPair kPair = PathPair::kBreakdownBounds;
    at_most(kPair, "upstream_le_total", b.upstream_ms, total);
    at_most(kPair, "burst_le_total", b.burst_ms, total);
    at_most(kPair, "position_le_total", b.position_ms, total);
    at_most(kPair, "total_le_union_bound", total,
            b3.upstream_ms + b3.burst_ms + b3.position_ms);
    at_most(kPair, "total_grows_as_eps_shrinks", total, total3);
  }

  /// Every factor of eq. (35) has a heavier tail at a higher gamer
  /// count (both loads and the burst size grow with n), so the RTT
  /// quantile of the model at n (1 + kLoadStep) must not fall below the
  /// one at n. A heavier model that is legitimately unsolvable
  /// (unstable, pole clash) has nothing to compare against.
  void check_load_monotone(const core::RttModel& m) {
    auto heavier = core::RttModel::create(
        p_.scenario, p_.n_clients * (1.0 + kLoadStep));
    if (!heavier) {
      if (!corpus_hole(heavier.error().code)) {
        solver_mismatch(heavier.error(), "rtt_model_heavier", p_.epsilon);
      }
      return;
    }
    try {
      at_most(PathPair::kLoadMonotone, "rtt_grows_with_load",
              m.rtt_quantile_ms(p_.epsilon),
              heavier.value().rtt_quantile_ms(p_.epsilon));
    } catch (const err::SolverFailure& e) {
      solver_mismatch(e.error(), "rtt_quantile_heavier", p_.epsilon);
    }
  }

  /// dimension_for_rtt against the model it inverts. With the bound at
  /// this point's own RTT quantile the point's load is feasible, so the
  /// bisection must return a load at most one bracket below it whose
  /// RTT meets the bound, one bracket above which the bound is missed
  /// (unless that step leaves the stability region), and a looser bound
  /// never admits less load. A zero stochastic quantile puts the bound
  /// at the deterministic RTT, where dimension_for_rtt answers "no load"
  /// by definition, so those points have nothing to bracket.
  void check_dimension(const core::RttModel& m) {
    const double eps = p_.epsilon;
    double bound = 0.0;
    try {
      bound = m.rtt_quantile_ms(eps);
    } catch (const err::SolverFailure& e) {
      solver_mismatch(e.error(), "rtt_quantile", eps);
      return;
    }
    if (!(bound > p_.scenario.deterministic_rtt_ms())) return;
    const auto dim = dimension("dimension", bound);
    const auto looser = dimension("dimension_looser", kBoundGrowth * bound);
    if (!dim || !looser) return;
    constexpr PathPair kPair = PathPair::kDimensionBracket;
    at_most(kPair, "rtt_at_max_le_bound", dim->rtt_at_max_ms, bound);
    at_most(kPair, "point_load_le_rho_max", p_.rho_down - kRhoBracket,
            dim->rho_max);
    at_most(kPair, "rho_max_grows_with_bound", dim->rho_max,
            looser->rho_max);
    auto above = core::RttModel::create(
        p_.scenario,
        p_.scenario.clients_for_downlink_load(dim->rho_max + kRhoBracket));
    if (!above) {
      if (!corpus_hole(above.error().code)) {
        solver_mismatch(above.error(), "rtt_model_above_rho_max", eps);
      }
      return;
    }
    try {
      at_most(kPair, "bound_missed_above_rho_max", bound,
              above.value().rtt_quantile_ms(eps));
    } catch (const err::SolverFailure& e) {
      solver_mismatch(e.error(), "rtt_quantile_above_rho_max", eps);
    }
  }

  /// dimension_for_rtt_checked at `bound`; nullopt when it has no answer
  /// (a numeric failure is recorded as a finding).
  std::optional<core::DimensioningResult> dimension(const char* what,
                                                    double bound) {
    auto result =
        core::dimension_for_rtt_checked(p_.scenario, bound, p_.epsilon);
    if (result.ok()) return result.value();
    if (!corpus_hole(result.error().code)) {
      solver_mismatch(result.error(), what, p_.epsilon);
    }
    return std::nullopt;
  }

  /// One-sided relation lo <= hi, up to rounding slack.
  void at_most(PathPair pair, const char* what, double lo, double hi) {
    ++out_.comparisons;
    const double mag = std::max(std::abs(lo), std::abs(hi));
    const double tol = kBoundAbsMs + kBoundRel * mag;
    // Written so a NaN on either side fails.
    if (lo - hi <= tol) return;
    Mismatch m = base_mismatch(pair);
    m.abs_error = std::abs(lo - hi);
    m.rel_error = mag > 0.0 ? m.abs_error / mag : m.abs_error;
    m.tolerance = tol;
    m.detail = describe(p_) + " " + what;
    append_g(m.detail, "lo_ms", lo);
    append_g(m.detail, "hi_ms", hi);
    out_.mismatches.push_back(std::move(m));
  }

  /// The serve sweep op's load grid over this point's scenario and
  /// epsilon. Every grid point must be exact (a failed one is a
  /// solver_health finding), the RTT quantile must not fall from one
  /// load to the next (load_monotone's slack), and each point's
  /// quantile and mean must equal, bit for bit, the rtt op at the same
  /// gamer count.
  void check_sweep() {
    if (p_.scenario.erlang_k < 2) return;
    const auto grid =
        core::sweep_load_grid(p_.scenario, p_.epsilon, kSweepStep);
    const serve::Engine engine;
    serve::Request rtt;
    rtt.scenario = p_.scenario;
    rtt.epsilon = p_.epsilon;
    const core::RttSweepPoint* prev = nullptr;
    for (const core::RttSweepPoint& g : grid) {
      std::string where = "sweep_point";
      append_g(where, "load", g.load);
      if (g.failed()) {
        solver_mismatch(g.error, where.c_str(), p_.epsilon);
        prev = nullptr;
        continue;
      }
      if (prev != nullptr) {
        at_most(PathPair::kSweepGrid, "sweep_rtt_grows_with_load",
                prev->rtt_quantile_ms, g.rtt_quantile_ms);
      }
      prev = &g;
      rtt.gamers = g.n_clients;
      const std::string response = engine.execute_one(rtt);
      const obs::json::Value parsed = obs::json::parse(response);
      const obs::json::Value* op = parsed.find("result");
      if (op == nullptr) {
        Mismatch m = base_mismatch(PathPair::kSolverHealth);
        m.detail = describe(p_) + " " + where + " rtt op: " + response;
        out_.mismatches.push_back(std::move(m));
        continue;
      }
      const double nan = std::nan("");
      compare(PathPair::kSweepGrid, where + " rtt_quantile_ms",
              g.rtt_quantile_ms, op->number_or("rtt_quantile_ms", nan), 0.0,
              0.0);
      compare(PathPair::kSweepGrid, where + " rtt_mean_ms", g.rtt_mean_ms,
              op->number_or("rtt_mean_ms", nan), 0.0, 0.0);
    }
  }

  /// M/E_K/1 two ways at the point's K and at 2K, with Poisson bursts
  /// at the tick rate and the point's mean burst service time: the
  /// multi-server wait's all-pole search (MG1ErlangMixService with one
  /// component) against GiEk1Solver on exponential interarrivals. Both
  /// are exact, so a failure on either side is a finding.
  void check_mek1() {
    if (p_.scenario.erlang_k < 2) return;
    const double period_s = p_.scenario.tick_ms * 1e-3;
    const double lambda = 1.0 / period_s;
    const double b = p_.rho_down * period_s;
    for (const int k : {p_.scenario.erlang_k, 2 * p_.scenario.erlang_k}) {
      const std::string where = "mek1 k'=" + std::to_string(k);
      auto ref = queueing::GiEk1Solver::create(
          k, b, queueing::gamma_arrivals(1.0, lambda));
      if (!ref) {
        solver_mismatch(ref.error(), (where + " giek1").c_str(), p_.epsilon);
        continue;
      }
      try {
        const queueing::MG1ErlangMixService mix{lambda, {{1.0, k, k / b}}};
        const queueing::ErlangMixMgf wait = mix.full_mgf();
        compare(PathPair::kMek1TwoWays, where + " atom", wait.constant_term(),
                ref.value().p_wait_zero(), kMek1AtomAbs, 0.0);
        compare(PathPair::kMek1TwoWays, where + " quantile",
                wait.quantile(p_.epsilon),
                ref.value().wait_quantile(p_.epsilon),
                kMek1AbsTicks * period_s, kMek1Rel);
      } catch (const err::SolverFailure& e) {
        solver_mismatch(e.error(), (where + " full_mgf").c_str(),
                        p_.epsilon);
      }
    }
  }

  /// Eq. 13 with two identical classes of n/2 gamers is the one-class
  /// upstream queue of n gamers: same wait quantile and mean.
  void check_mixed_split() {
    const core::GamerClass all{p_.n_clients, p_.scenario.client_packet_bytes,
                               p_.scenario.tick_ms};
    core::GamerClass half = all;
    half.n_clients = 0.5 * all.n_clients;
    const double c = p_.scenario.bottleneck_bps;
    try {
      const core::MixedUpstreamModel one{{all}, c};
      const core::MixedUpstreamModel two{{half, half}, c};
      compare(PathPair::kMixedSplit, "mixed_split wait_quantile_ms",
              two.wait_quantile_ms(p_.epsilon),
              one.wait_quantile_ms(p_.epsilon), kSplitAbsMs, kSplitRel);
      compare(PathPair::kMixedSplit, "mixed_split mean_wait_ms",
              two.mean_wait_ms(), one.mean_wait_ms(), kSplitAbsMs,
              kSplitRel);
    } catch (const std::invalid_argument&) {
      // Upstream unstable at this gamer count: nothing to compare.
    } catch (const err::SolverFailure& e) {
      solver_mismatch(e.error(), "mixed_split", p_.epsilon);
    }
  }

  /// Serve-vs-cold byte identity on the leading corpus points: batched
  /// engine responses (a duplicate pair, on the pool) must equal one-shot
  /// evaluation, which is what the CLI's rtt / dimension commands print.
  void check_serve() {
    if (p_.index >= opt_.serve_points || p_.scenario.erlang_k < 2) return;
    serve::Request req;
    req.id = "chk-" + std::to_string(p_.index) + "-a";
    req.op = (p_.index % 4 == 3) ? serve::Op::kDimension : serve::Op::kRtt;
    req.scenario = p_.scenario;
    req.epsilon = p_.epsilon;
    req.gamers = p_.n_clients;
    req.bound_ms = 80.0;
    serve::Request dup = req;  // a duplicate in one batch
    dup.id = "chk-" + std::to_string(p_.index) + "-b";

    serve::ParsedRequest pa;
    pa.ok = true;
    pa.id = req.id;
    pa.request = req;
    serve::ParsedRequest pb;
    pb.ok = true;
    pb.id = dup.id;
    pb.request = dup;

    const serve::Engine engine;
    const std::vector<std::string> batched = engine.execute({pa, pb});
    bytes_equal("serve_batched_a", batched[0], engine.execute_one(req));
    bytes_equal("serve_batched_b", batched[1], engine.execute_one(dup));
  }

  void bytes_equal(const char* what, const std::string& got,
                   const std::string& want) {
    ++out_.comparisons;
    if (got == want) return;
    std::size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
    Mismatch m = base_mismatch(PathPair::kServeVsCold);
    m.abs_error = 1.0;
    m.rel_error = 1.0;
    m.detail = describe(p_) + " " + what + " diverges at byte " +
               std::to_string(i) + " batched='" + got + "' cold='" +
               want + "'";
    out_.mismatches.push_back(std::move(m));
  }

 private:
  [[nodiscard]] Mismatch base_mismatch(PathPair pair) const {
    Mismatch m;
    m.point_index = p_.index;
    m.seed = p_.seed;
    m.point_seed = p_.point_seed;
    m.pair = pair;
    return m;
  }

  const CheckPoint& p_;
  const CheckOptions& opt_;
  PointOutcome out_;
};

PointOutcome evaluate_point(const CheckPoint& p, const CheckOptions& opt) {
  PointChecker checker(p, opt);
  checker.check_law();
  checker.check_model();
  checker.check_sweep();
  checker.check_mek1();
  checker.check_mixed_split();
  checker.check_serve();
  return std::move(checker).take();
}

/// Analytic-vs-simulation: the model's RTT quantile must sit inside the
/// replicated packet-level simulation's confidence band. Statistical,
/// so the tolerance is a CI multiple plus a bias allowance — wide
/// enough never to flag sampling noise, tight enough to catch a law
/// evaluated in the wrong units or against the wrong load.
PointOutcome evaluate_sim_point(const CheckPoint& p,
                                const CheckOptions& opt) {
  PointOutcome out;
  if (opt.sim_replications < 1) return out;
  core::ValidationOptions vopt;
  vopt.quantile_prob = 1.0 - p.epsilon;
  vopt.duration_s = opt.sim_duration_s;
  vopt.warmup_s = kSimWarmupS;
  std::vector<double> sim_rtt;
  sim_rtt.reserve(static_cast<std::size_t>(opt.sim_replications));
  double model_rtt = 0.0;
  ++out.comparisons;
  try {
    for (int rep = 0; rep < opt.sim_replications; ++rep) {
      vopt.seed = sim::replication_seed(p.point_seed,
                                        static_cast<std::size_t>(rep));
      const core::ValidationPoint vp = core::validate_point(
          p.scenario, static_cast<int>(p.n_clients), vopt);
      sim_rtt.push_back(vp.sim_rtt_ms);
      model_rtt = vp.model_rtt_ms;
    }
  } catch (const std::exception& e) {
    Mismatch m;
    m.point_index = p.index;
    m.seed = p.seed;
    m.point_seed = p.point_seed;
    m.pair = PathPair::kAnalyticVsSim;
    m.detail = describe(p) + " validate_point failed: " + e.what();
    out.mismatches.push_back(std::move(m));
    return out;
  }
  const std::size_t reps = sim_rtt.size();
  double sim_mean = 0.0;
  for (const double v : sim_rtt) sim_mean += v;
  sim_mean /= static_cast<double>(reps);
  double ci = 0.05 * sim_mean;  // single rep: flat 5% allowance
  if (reps > 1) {
    double ss = 0.0;
    for (const double v : sim_rtt) ss += (v - sim_mean) * (v - sim_mean);
    const double sd = std::sqrt(ss / static_cast<double>(reps - 1));
    ci = 1.96 * sd / std::sqrt(static_cast<double>(reps));
  }
  const double model = model_rtt + opt.perturb;
  const double slack = 4.0 * ci + 0.10 * model + 1.0;
  const double abs_err = std::abs(model - sim_mean);
  if (!(abs_err <= slack)) {
    Mismatch m;
    m.point_index = p.index;
    m.seed = p.seed;
    m.point_seed = p.point_seed;
    m.pair = PathPair::kAnalyticVsSim;
    m.abs_error = abs_err;
    m.rel_error = sim_mean > 0.0 ? abs_err / sim_mean : abs_err;
    m.tolerance = slack;
    m.detail = describe(p) + " rtt_quantile_ms";
    append_g(m.detail, "model", model);
    append_g(m.detail, "sim_mean", sim_mean);
    append_g(m.detail, "ci95", ci);
    out.mismatches.push_back(std::move(m));
  }
  return out;
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %s=%" PRIu64, key, v);
  out += buf;
}

}  // namespace

const char* path_pair_name(PathPair pair) noexcept {
  switch (pair) {
    case PathPair::kKernelVsMgf: return "kernel_vs_mgf";
    case PathPair::kKernelVsOracle: return "kernel_vs_oracle";
    case PathPair::kRoundTrip: return "round_trip";
    case PathPair::kAnalyticVsSim: return "analytic_vs_sim";
    case PathPair::kServeVsCold: return "serve_vs_cold";
    case PathPair::kSolverHealth: return "solver_health";
    case PathPair::kBreakdownBounds: return "breakdown_bounds";
    case PathPair::kLoadMonotone: return "load_monotone";
    case PathPair::kDimensionBracket: return "dimension_bracket";
    case PathPair::kSweepGrid: return "sweep_grid";
    case PathPair::kMek1TwoWays: return "mek1_two_ways";
    case PathPair::kMixedSplit: return "mixed_split";
  }
  return "?";
}

std::string Mismatch::to_line() const {
  std::string line = "MISMATCH pair=";
  line += path_pair_name(pair);
  line += " point=" + std::to_string(point_index);
  append_u64(line, "seed", seed);
  append_u64(line, "point_seed", point_seed);
  append_g(line, "abs", abs_error);
  append_g(line, "rel", rel_error);
  append_g(line, "tol", tolerance);
  line += " :: " + detail;
  line += " :: repro: fpsq check --seed " + std::to_string(seed);
  if (pair == PathPair::kAnalyticVsSim) {
    line += " --points 0 --sim-points " + std::to_string(point_index + 1);
  } else {
    line += " --points " + std::to_string(point_index + 1);
  }
  return line;
}

std::string CheckReport::to_text() const {
  std::string out = "# fpsq check";
  append_u64(out, "seed", options.seed);
  append_u64(out, "corpus_points", options.points);
  append_u64(out, "sim_points", options.sim_points);
  append_u64(out, "serve_points",
             std::min(options.serve_points, options.points));
  if (options.perturb != 0.0) append_g(out, "perturb", options.perturb);
  out += "\n";
  for (const Mismatch& m : mismatches) {
    out += m.to_line();
    out += "\n";
  }
  out += "points      " + std::to_string(points) + "\n";
  out += "comparisons " + std::to_string(comparisons) + "\n";
  out += "skipped     " + std::to_string(skipped) + "\n";
  out += "mismatches  " + std::to_string(mismatches.size()) + "\n";
  out += ok() ? "check: OK\n" : "check: FAIL\n";
  return out;
}

CheckReport run_check(const CheckOptions& options) {
  CheckReport report;
  report.options = options;
  const std::size_t n_main = options.points;
  const std::size_t n_total = n_main + options.sim_points;

  // chunk = 1: points differ wildly in cost (a sim point is ~1000x a
  // law-only point), so fine-grained stealing keeps the pool busy; the
  // output is aggregated in index order either way.
  std::vector<PointOutcome> outcomes =
      par::global_pool().parallel_map<PointOutcome>(
          n_total,
          [&options, n_main](std::size_t i) {
            if (i < n_main) {
              return evaluate_point(sample_point(options.seed, i),
                                    options);
            }
            return evaluate_sim_point(
                sample_sim_point(options.seed, i - n_main), options);
          },
          /*chunk=*/1);

  for (PointOutcome& o : outcomes) {
    ++report.points;
    report.comparisons += o.comparisons;
    if (o.skipped) ++report.skipped;
    for (Mismatch& m : o.mismatches) {
      report.mismatches.push_back(std::move(m));
    }
  }

  FPSQ_OBS_COUNT_N("check.points", report.points);
  FPSQ_OBS_COUNT_N("check.comparisons", report.comparisons);
  FPSQ_OBS_COUNT_N("check.skipped", report.skipped);
  FPSQ_OBS_COUNT_N("check.mismatches", report.mismatches.size());
  return report;
}

}  // namespace fpsq::check
