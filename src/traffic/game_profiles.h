// Named game traffic profiles encoding the published models surveyed in
// Section 2 of the paper. Each profile carries the client-side and
// server-side laws plus the citation it derives from. Where the original
// papers report dependencies (map, player count, client hardware) we
// expose them as parameters with defaults matching the published numbers.
#pragma once

#include <string>
#include <vector>

#include "traffic/client_source.h"
#include "traffic/server_source.h"

namespace fpsq::traffic {

struct GameProfile {
  std::string name;
  std::string citation;
  /// Streams one client runs concurrently (Halo runs two; others one).
  std::vector<PeriodicStreamModel> client_streams;
  ServerTrafficModel server;
  /// Nominal server tick interval T [ms] for the analytic model.
  double nominal_tick_ms = 0.0;
  /// Nominal client packet size [bytes] for the analytic model.
  double nominal_client_packet_bytes = 0.0;
  /// Nominal mean server packet size [bytes] for the analytic model.
  double nominal_server_packet_bytes = 0.0;
};

/// Counter-Strike per Färber [11] / Table 1: client Det(40) IAT and
/// Ext(80, 5.7) sizes; server Ext(55, 6) burst IAT and iid Ext(120, 36)
/// packet sizes.
[[nodiscard]] GameProfile counter_strike();

/// Half-Life per Lang et al. [16] / Table 2: Det(60) server ticks with
/// map-dependent lognormal packet sizes (default mean 120 B, CoV 0.5);
/// client Det(41) IAT, normal-ish sizes in 60-90 B (default N(75, 7)).
[[nodiscard]] GameProfile half_life(double server_mean_size_bytes = 120.0,
                                    double server_size_cov = 0.5);

/// Quake3 per Lang et al. [18]: ~50 ms server ticks, packet sizes growing
/// with the player count (50-400 B); client sizes 50-70 B, IAT 10-30 ms
/// depending on map/graphics card (default 15 ms).
[[nodiscard]] GameProfile quake3(int players, double client_iat_ms = 15.0);

/// Halo (Xbox System Link) per Lang & Armitage [17]: Det(40) server ticks
/// with player-dependent fixed sizes; clients send 33% fixed 72 B packets
/// every 201 ms plus 67% player-dependent packets at a hardware-dependent
/// period (default 100 ms).
[[nodiscard]] GameProfile halo(int players,
                               double client_main_iat_ms = 100.0);

/// Unreal Tournament 2003 per the paper's own measurements (Section 2.2 /
/// Table 3): burst IAT 47 ms (CoV 0.07), burst sizes mean 1852 B with
/// overall CoV 0.19 but a heavier-than-Erlang(28) tail (Figure 1), small
/// within-burst size CoV; client IAT 30 ms (CoV 0.65), sizes 73 B
/// (CoV 0.06). Nominal player count of the measured LAN party: 12.
[[nodiscard]] GameProfile unreal_tournament(int players = 12);

}  // namespace fpsq::traffic
