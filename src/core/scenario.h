// The Section-4 access-network scenario: all traffic and network
// parameters of the paper's numerical study, plus the load formulas
// (eq. 37 and its uplink analogue) and the deterministic RTT component.
#pragma once

namespace fpsq::core {

/// Parameters of the DSL gaming scenario (paper Section 4 defaults).
struct AccessScenario {
  double client_packet_bytes = 80.0;   ///< P_C [bytes]
  double server_packet_bytes = 125.0;  ///< P_S, mean per-client share [bytes]
  double tick_ms = 40.0;               ///< T: tick = client period [ms]
  int erlang_k = 9;                    ///< K: burst-size Erlang order
  /// Server tick-interval CoV (0 = the paper's deterministic ticks;
  /// > 0 models Gamma-jittered ticks through the exact GI/E_K/1
  /// generalization — the UT2003 trace measured 0.07).
  double tick_jitter_cov = 0.0;
  double uplink_bps = 128e3;           ///< R_up (per-client access uplink)
  double downlink_bps = 1024e3;        ///< R_down (per-client access downlink)
  double bottleneck_bps = 5e6;         ///< C: gaming capacity on the trunk
  double propagation_ms = 0.0;         ///< one-way propagation [ms]
  double server_processing_ms = 0.0;   ///< server processing [ms]

  /// Downlink gaming load rho_d = 8 N P_S / (T C)  (eq. 37).
  [[nodiscard]] double downlink_load(double n_clients) const;
  /// Uplink gaming load rho_u = 8 N P_C / (T C).
  [[nodiscard]] double uplink_load(double n_clients) const;

  /// Number of gamers producing the given downlink load (eq. 37 inverted).
  [[nodiscard]] double clients_for_downlink_load(double rho) const;

  /// Largest client count keeping both directions stable (rho < 1).
  [[nodiscard]] double max_stable_clients() const;

  /// Deterministic RTT component [ms]: serialization of the client packet
  /// on R_up and C, of the server packet on C and R_down, plus two
  /// propagation legs and server processing (Sections 1, 4).
  [[nodiscard]] double deterministic_rtt_ms() const;

  /// Throws std::invalid_argument when any parameter is non-positive or
  /// K < 1.
  void validate() const;
};

}  // namespace fpsq::core
