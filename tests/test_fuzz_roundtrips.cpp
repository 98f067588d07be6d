// Randomized round-trip and robustness tests: CSV trace serialization,
// pcap corruption, and Erlang-mix algebra under random compositions.
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "dist/rng.h"
#include "queueing/erlang_mix.h"
#include "trace/pcap.h"
#include "trace/trace_io.h"

namespace fpsq {
namespace {

TEST(FuzzTraceCsv, RandomTracesRoundTripExactly) {
  dist::Rng rng{0xF122};
  for (int round = 0; round < 20; ++round) {
    trace::Trace t;
    const int n = 1 + static_cast<int>(rng.uniform_int(200));
    double clock = 0.0;
    for (int i = 0; i < n; ++i) {
      clock += rng.uniform01() * 0.05;
      trace::PacketRecord r;
      r.time_s = clock;
      r.size_bytes = 1 + static_cast<std::uint32_t>(rng.uniform_int(2000));
      r.direction = rng.uniform01() < 0.5
                        ? trace::Direction::kClientToServer
                        : trace::Direction::kServerToClient;
      r.flow_id = static_cast<std::uint16_t>(rng.uniform_int(64));
      r.burst_id = rng.uniform01() < 0.3
                       ? trace::PacketRecord::kNoBurst
                       : static_cast<std::uint32_t>(rng.uniform_int(1000));
      t.add(r);
    }
    std::stringstream ss;
    trace::write_csv(ss, t);
    const trace::Trace back = trace::read_csv(ss);
    ASSERT_EQ(back.size(), t.size()) << "round " << round;
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_NEAR(back.records()[i].time_s, t.records()[i].time_s,
                  1e-9 * (1.0 + t.records()[i].time_s));
      EXPECT_EQ(back.records()[i].size_bytes, t.records()[i].size_bytes);
      EXPECT_EQ(back.records()[i].flow_id, t.records()[i].flow_id);
      EXPECT_EQ(back.records()[i].burst_id, t.records()[i].burst_id);
    }
  }
}

TEST(FuzzPcap, RandomCorruptionNeverCrashes) {
  // Start from a valid single-packet capture and corrupt random bytes /
  // truncate at random offsets: the reader must either parse or throw —
  // never crash or hang.
  const unsigned char base[] = {
      // global header (LE, usec, ethernet)
      0xD4, 0xC3, 0xB2, 0xA1, 2, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0xFF, 0xFF, 0, 0, 1, 0, 0, 0,
      // packet header: ts 1.0, len 60
      1, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0, 60, 0, 0, 0};
  std::string valid(reinterpret_cast<const char*>(base), sizeof(base));
  valid.append(60, '\x42');

  trace::PcapReadOptions opt;
  opt.server.ipv4 = 0x0A000001;
  opt.server.port = 27015;

  dist::Rng rng{0xF123};
  int parsed = 0, threw = 0;
  for (int round = 0; round < 400; ++round) {
    std::string mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.uniform_int(6));
    for (int m = 0; m < mutations; ++m) {
      const auto pos =
          static_cast<std::size_t>(rng.uniform_int(mutated.size()));
      mutated[pos] = static_cast<char>(rng.uniform_int(256));
    }
    if (rng.uniform01() < 0.3) {
      mutated.resize(rng.uniform_int(mutated.size() + 1));
    }
    std::istringstream is{mutated};
    try {
      const auto t = trace::read_pcap(is, opt);
      ++parsed;
      EXPECT_LE(t.size(), 4u);  // at most a few records from 1 frame
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_EQ(parsed + threw, 400);
  EXPECT_GT(threw, 0);  // corruption must be detectable sometimes
}

TEST(FuzzErlangMix, RandomProductsPreserveMassAndMean) {
  dist::Rng rng{0xF124};
  using queueing::ErlangMixMgf;
  for (int round = 0; round < 60; ++round) {
    ErlangMixMgf acc;  // point mass at zero
    double mean = 0.0;
    const int factors = 2 + static_cast<int>(rng.uniform_int(4));
    double theta = 0.5 + rng.uniform01();
    for (int f = 0; f < factors; ++f) {
      if (rng.uniform01() < 0.5) {
        acc = multiply(acc, ErlangMixMgf::atom_plus_exponential(
                                0.0, {theta, 0.0}));
        mean += 1.0 / theta;
      } else {
        const double atom = rng.uniform01() * 0.9;
        acc = multiply(acc, ErlangMixMgf::atom_plus_exponential(
                                atom, {theta, 0.0}));
        mean += (1.0 - atom) / theta;
      }
      theta *= 1.37 + rng.uniform01();  // keep poles distinct
    }
    EXPECT_NEAR(acc.total_mass(), 1.0, 1e-7) << "round " << round;
    EXPECT_NEAR(acc.mean(), mean, 1e-7 * (1.0 + mean))
        << "round " << round;
    // Tail sane at a few random abscissae.
    double prev = 1.0 + 1e-9;
    for (double frac : {0.0, 0.5, 1.0, 2.0, 5.0}) {
      const double t = acc.tail(mean * frac);
      EXPECT_GE(t, -1e-8) << "round " << round;
      EXPECT_LE(t, prev + 1e-8) << "round " << round;
      prev = t;
    }
  }
}

}  // namespace
}  // namespace fpsq
