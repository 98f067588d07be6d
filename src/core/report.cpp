#include "core/report.h"

#include <sstream>

#include "core/playability.h"
#include "core/rtt_model.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace fpsq::core {

std::string scenario_report_markdown(const AccessScenario& scenario,
                                     const ReportOptions& options) {
  scenario.validate();
  if (!(options.epsilon > 0.0 && options.epsilon < 1.0)) {
    throw std::invalid_argument("scenario_report_markdown: bad epsilon");
  }
  const RttModel model{scenario, options.n_clients};
  const auto b = model.breakdown_ms(options.epsilon);
  const Playability rating = rate_rtt(b.total_ms);

  std::ostringstream os;
  os.precision(4);
  os << "# FPS ping assessment\n\n";
  os << "## Scenario\n\n";
  os << "| parameter | value |\n|---|---|\n";
  os << "| gamers | " << options.n_clients << " |\n";
  os << "| tick interval T | " << scenario.tick_ms << " ms";
  if (scenario.tick_jitter_cov > 0.0) {
    os << " (jitter CoV " << scenario.tick_jitter_cov
       << ", GI/E_K/1 model)";
  }
  os << " |\n";
  os << "| server packet P_S | " << scenario.server_packet_bytes
     << " B (mean per client) |\n";
  os << "| client packet P_C | " << scenario.client_packet_bytes
     << " B |\n";
  os << "| burst Erlang order K | " << scenario.erlang_k << " |\n";
  os << "| gaming capacity C | " << scenario.bottleneck_bps / 1e6
     << " Mb/s |\n";
  os << "| access up/down | " << scenario.uplink_bps / 1e3 << " / "
     << scenario.downlink_bps / 1e3 << " kb/s |\n";
  os << "| downlink load | " << 100.0 * model.rho_down() << " % |\n";
  os << "| uplink load | " << 100.0 * model.rho_up() << " % |\n\n";

  os << "## Ping\n\n";
  os << "| quantity | value |\n|---|---|\n";
  os << "| mean RTT | " << model.rtt_mean_ms() << " ms |\n";
  os << "| RTT quantile (eps = " << options.epsilon << ") | **"
     << b.total_ms << " ms** |\n";
  os << "| rating | **" << to_string(rating) << "** |\n\n";
  os << "Breakdown (per-part quantiles):\n\n";
  os << "| component | ms |\n|---|---|\n";
  os << "| serialization + propagation | " << b.deterministic_ms << " |\n";
  os << "| upstream queueing (M/D/1) | " << b.upstream_ms << " |\n";
  os << "| burst wait ("
     << (scenario.tick_jitter_cov > 0.0 ? "GI/E_K/1" : "D/E_K/1")
     << ") | " << b.burst_ms << " |\n";
  os << "| position within burst | " << b.position_ms << " |\n\n";

  if (options.include_capacity_table) {
    os << "## Capacity by target quality\n\n";
    os << "| rating | RTT budget [ms] | max load | max gamers |\n";
    os << "|---|---|---|---|\n";
    for (const auto& row : capacity_by_rating(scenario, options.epsilon)) {
      os << "| " << to_string(row.rating) << " | "
         << rtt_budget_ms(row.rating) << " | "
         << 100.0 * row.rho_max << " % | " << row.n_max << " |\n";
    }
    os << "\n";
  }
  if (options.include_telemetry) {
    os << "## Telemetry\n\n";
    os << obs::render_summary(obs::MetricsRegistry::global().snapshot());
    os << "\n";
  }
  {
    const auto& m = obs::RunManifest::current();
    os << "## Run manifest\n\n";
    os << "| git sha | build | compiler | sanitizer | threads |\n";
    os << "|---|---|---|---|---|\n";
    os << "| " << m.git_sha << " | " << m.build_type << " | " << m.compiler
       << " | " << m.sanitizer << " | " << m.threads << " |\n\n";
    os << "_Generated " << m.timestamp_utc << " on " << m.hostname
       << " (schema " << m.schema << ")._\n\n";
  }
  os << "_Model: Degrande, De Vleeschauwer, Kooij, Mandjes — Modeling "
        "Ping times in First Person Shooter games (CWI PNA-R0608, "
        "2006)._\n";
  return os.str();
}

}  // namespace fpsq::core
